"""The row decoders against per-key references: the decoders as they were
when every recovered value was its own dict entry, one Python step per
value, kept here to pin what the row decoders must return."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcsim.gf import apply_plan, power_sum_plan, solve_plan, unpack_lanes
from cdcsim.scheme import ValueRows, choose_T
from cdcsim.shuffle import (MissingMessageError, Transcript, coders,
                            decode_ads, decode_sd, join_bits, run)
from test_shuffle import SHARED_ADS_SCHEMES, SHARED_SD_SCHEMES, fresh


def reference_decode_sd(s, node, transcript, ivs):
    """decode_sd value by value, into a dict keyed (q, n); payload range
    checks left out, as every payload here is in range."""
    T, values, solved = ivs.T, ivs.values, transcript.memo
    by_key, stored = transcript.by_key, set(s.placement[node])
    out = {}
    for u, groups in enumerate(s.sd_groups):
        if u == node:
            continue
        for message_key, count, segments, keys, indices in groups:
            if all(q in stored for q, _ in keys):
                continue
            width = T // segments
            mask = (1 << width) - 1
            message = by_key.get(message_key)
            if message is None:
                raise MissingMessageError(node, message_key)
            rhs = message.payload
            unknown = []
            for j, key in enumerate(keys):
                if key[1] in stored:
                    rhs ^= apply_plan(
                        power_sum_plan(width, j, count),
                        values[key] >> (segments - 1 - indices[j]) * width
                        & mask)
                else:
                    unknown.append(j)
            system = (width, tuple(unknown), rhs)
            solution = solved.get(system)
            if solution is None:
                solution = solved[system] = tuple(unpack_lanes(
                    apply_plan(solve_plan(width, system[1]), rhs), width,
                    len(unknown)))
            for j, segment in zip(unknown, solution):
                out[keys[j]] = out.get(keys[j], 0) | segment << (
                    segments - 1 - indices[j]) * width
    return out


def reference_decode_ads(s, node, transcript, ivs):
    """decode_ads value by value, into a dict keyed (q, n), with the same
    memo: one scope keyed (T, placement), a pair sum under its pair, a
    plain segment group under its orientation."""
    T, values, by_key = ivs.T, ivs.values, transcript.by_key
    through, pairs = s.point_blocks, s.pair_blocks
    joined = transcript.memo.setdefault((T, s.placement), {})

    def join(tag, a, b, senders):
        try:
            payloads = [by_key[u, tag, (a, b, j)].payload
                        for j, u in enumerate(senders)]
        except KeyError as missing:
            raise MissingMessageError(node, missing.args[0]) from None
        return join_bits(payloads, T // len(senders))

    out = {}
    for q, n in product(s.assignment[node], s.lacking[node]):
        pair = (q, n) if q < n else (n, q)
        senders = pairs.get(pair)
        if senders:
            value = joined.get(pair)
            if value is None:
                value = joined[pair] = join("ADS-pairsum", *pair, senders)
            out[q, n] = value ^ values[n, q]
        else:
            value = joined.get((q, n))
            if value is None:
                value = joined[q, n] = join("ADS-segment", q, n, through[n])
            out[q, n] = value
    return out


SCHEMES = {**SHARED_SD_SCHEMES, **SHARED_ADS_SCHEMES}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SCHEMES)), st.integers(0, 3), st.data())
def test_row_decodes_match_the_per_key_reference(name, seed, data):
    """Decode the nodes of a fresh transcript in a drawn order with both
    decoders, each on its own transcript: every row decode, read by
    (q, n), equals the reference's dict, its keys run q-major over the
    assignment and the lacking files, its rows are those values, and the
    two memos end equal."""
    s = SCHEMES[name]()
    result = run(s, seed, choose_T(s))
    ivs = result.ivs
    _, decode = coders(s)
    reference = {decode_sd: reference_decode_sd,
                 decode_ads: reference_decode_ads}[decode]
    rows, keyed = fresh(result.transcript), fresh(result.transcript)
    for node in data.draw(st.permutations(range(s.K))):
        got = decode(s, node, rows, ivs)
        want = reference(s, node, keyed, ivs)
        assigned, lacking = s.assignment[node], s.lacking[node]
        assert isinstance(got, ValueRows)
        assert got == want and dict(got.items()) == want
        assert list(got) == list(product(assigned, lacking))
        assert got.rows == tuple(tuple(want[q, n] for n in lacking)
                                 for q in assigned)
    assert rows.memo == keyed.memo


def outcome(decode, s, node, transcript, ivs):
    """What a decode gives: its values as a dict, or the key its
    MissingMessageError names."""
    try:
        return dict(decode(s, node, transcript, ivs).items())
    except MissingMessageError as missing:
        assert missing.node == node
        return missing.key


@pytest.mark.parametrize("name", sorted(SHARED_ADS_SCHEMES))
@pytest.mark.parametrize("step", [1, 2, 3])
def test_row_decode_names_the_first_missing_message(name, step):
    """With every step-th message deleted, many groups of one row miss a
    message: each node's row decode names the same first missing message
    as the per-key reference, or decodes the same values, so the row's
    groups are joined in row order."""
    s = SHARED_ADS_SCHEMES[name]()
    result = run(s, 0, choose_T(s))
    kept = [m for i, m in enumerate(result.transcript.messages) if i % step]
    missing = 0
    for node in range(s.K):
        got = outcome(decode_ads, s, node, Transcript(kept), result.ivs)
        assert got == outcome(reference_decode_ads, s, node, Transcript(kept),
                              result.ivs), node
        missing += isinstance(got, tuple)
    assert missing > 0
