import hashlib
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcsim.analysis import ads_load, ours_sd_load
from cdcsim.designs import (classify_ads, complement_ads, projective_plane,
                            require_symmetric_design, ruzsa_ads)
from cdcsim.gf import BinaryField, FieldError, power_sum_plan
from cdcsim import shuffle
from cdcsim.scheme import (IncompleteRecoveryError, IVTable, Scheme,
                           SchemeParameterError, ValueRows,
                           centralized_outputs, choose_T, generate_ivs,
                           node_view, reduce_outputs)
from cdcsim.shuffle import (Message, MissingMessageError, Transcript, coders,
                            decode_ads, decode_all, decode_sd, join_bits, run,
                            shuffle_ads, shuffle_sd, split_bits,
                            transcript_chunks, transcript_to_jsonl)

CYCLIC_FANO = [tuple(sorted((d + r) % 7 for d in (0, 1, 3))) for r in range(7)]


def fano_scheme():
    return Scheme(require_symmetric_design(7, CYCLIC_FANO))


def ads_scheme(D, n):
    return Scheme(classify_ads(D, n))


def transcript_for(s, seed):
    return run(s, seed, choose_T(s)).transcript


def fresh(transcript):
    """A copy of transcript whose decode memo is empty."""
    return Transcript(transcript.messages)


def needed_values(s, ivs, node):
    """What node must recover, read from the table: its exact decode."""
    return {key: ivs.values[key] for key in node_view(s, node).needed}


def doctored(ivs, change):
    """The table with each value v_{q,n} replaced by change(q, n, v)."""
    return IVTable(T=ivs.T, rows=tuple(
        tuple(change(q, n, value) for n, value in enumerate(row))
        for q, row in enumerate(ivs.rows)))


def run_end_to_end(s, seed=0, scale=1):
    """Run the pipeline, then decode every node again from the transcript
    run() returns, its memo freed, and re-check each decode and its
    reduce; returns (load, transcript, ivs)."""
    result = run(s, seed, choose_T(s, scale))
    assert result.transcript.memo == {}
    ivs = result.ivs
    oracle = centralized_outputs(s, ivs)
    nodes = []
    for node, got in decode_all(s, result.transcript, ivs):
        nodes.append(node)
        assert set(got) == set(node_view(s, node).needed)
        for key, value in got.items():
            assert value == ivs.values[key], (node, key)
        for q, value in reduce_outputs(s, ivs, {node: got})[node].items():
            assert value == oracle[q]
    assert nodes == list(range(s.K))
    assert result.decode_ok
    assert result.load == s.formula
    return result.load, result.transcript, ivs


def test_split_join_round_trip():
    rng = random.Random(11)
    for width, parts in ((6, 3), (6, 1), (12, 4), (8, 8), (30, 5)):
        for _ in range(10):
            value = rng.randrange(1 << width)
            segs = split_bits(value, width, parts)
            assert len(segs) == parts
            assert join_bits(segs, width // parts) == value
    assert split_bits(0b110100, 6, 3) == [0b11, 0b01, 0b00]
    with pytest.raises(ValueError):
        split_bits(1, 6, 4)
    with pytest.raises(ValueError):
        split_bits(1 << 6, 6, 3)


def test_fano_end_to_end():
    s = Scheme(require_symmetric_design(7, CYCLIC_FANO))
    load, transcript, _ = run_end_to_end(s)
    assert load == Fraction(11, 21)
    assert load == ours_sd_load(7, 3)
    assert transcript.total_bits == 154
    # one message per coding group: the diagonal one and one per file
    for node in range(7):
        assert sum(m.sender == node for m in transcript.messages) == 4


def test_fano_payload_goldens():
    """Spot-check the coded signals of node 0 against hand encoding."""
    s = fano_scheme()
    result = run(s, 9, choose_T(s))
    T, ivs, by_key = result.ivs.T, result.ivs, result.transcript.by_key
    # block 0 is (0,1,3); it is block 0 of the lists through 0, 1, and 3,
    # so it holds segment 0 of each diagonal value
    segs = [split_bits(ivs.values[(x, x)], T, 3)[0] for x in (0, 1, 3)]
    diagonal = by_key[(0, "SD-diagonal", ())]
    assert diagonal.bits == 2 * (T // 3)
    # lane p, lowest first, holds power sum p
    sum0, sum1 = split_bits(diagonal.payload, diagonal.bits, 2)[::-1]
    assert sum0 == segs[0] ^ segs[1] ^ segs[2]
    f = BinaryField(T // 3)
    assert sum1 == segs[1] ^ f.mul(2, segs[2])
    # lam = 1: off-diagonal rows carry whole values in one lane, power 0,
    # a plain XOR
    for x, others in ((0, (1, 3)), (1, (0, 3))):
        m = by_key[(0, "SD-offdiagonal", (x,))]
        assert m.bits == T
        assert m.payload == ivs.values[(x, others[0])] ^ \
            ivs.values[(x, others[1])]


def split_sd_lanes(s, transcript):
    """The transcript with each sd message split into its count lanes,
    lane p (lowest first) under meta + (p,) with bits = width; count is
    g - lam for a group of g members, read off the design."""
    if s.kind != "sd":
        return transcript
    t, lam = s.design.t, s.design.lam
    messages = []
    for m in transcript.messages:
        count = t - lam - (m.tag == "SD-offdiagonal")
        width = m.bits // count
        assert width * count == m.bits
        lanes = split_bits(m.payload, m.bits, count)[::-1]
        messages += [m._replace(meta=m.meta + (p,), bits=width, payload=lane)
                     for p, lane in enumerate(lanes)]
    return Transcript(tuple(messages))


def sha256_jsonl(transcript):
    return hashlib.sha256(transcript_to_jsonl(transcript).encode()).hexdigest()


@pytest.mark.parametrize("make_scheme,scale,lanes_digest,digest", [
    (lambda: Scheme(projective_plane(2)), 1,
     "e0c788373ccf805593f2027fed0ee1136eb371b125ba63fadba9f32e1a6d6171",
     "5e00635f4a691deb71ac73c737a0fc29ad5d9d085940ad24413c4f970b149dcc"),
    (lambda: Scheme(projective_plane(3)), 1,
     "790f67c298dae0e825eaf6f881f787d208c0fa976210fed32fb205aef952c20c",
     "03b70a21cea37c0ff1e86321e152a0dab4050ed17d320f3509c924d8ca2b2c5e"),
    (lambda: Scheme(projective_plane(3)), 4,
     "fcf1a90bae9cf2473afd07ecee4da5fa08057430e235a6681d375c824bd28233",
     "6dc7df5128840339c143ce33b12ccb0cfa7e4536019e8e010cc48bdc9f04ce13"),
    (lambda: Scheme(projective_plane(7)), 1,
     "2a77cae7a1dc0fe50eb5d88bdc6c036774ae2b213d3ee6e5869d2b58b33fddfb",
     "1690aa3465f04f0ffaeea29a39d4459abca8f02a47b37c2649322ae5d157b7f6"),
    (lambda: Scheme(require_symmetric_design(
        7, complement_blocks(7, CYCLIC_FANO))), 1,
     "be1d8316dadf70c2b657b7d0370d7d862574474de7c9de262245132af3a26454",
     "6afd9837676869bddc8b7ad99b46f1c5e176754a1ed5e37605c3d771843a8af9"),
    (lambda: Scheme(require_symmetric_design(
        11, cyclic_blocks(quadratic_residues(11), 11))), 1,
     "f04ab3b986bec72402cf23bba47924871621ec0b6b9be4c7844b8b7bfae189c2",
     "7975caba4a5ec51f7d51221e1d6ef135b567d30c6ab8516b1f5acf7daf230317"),
    (lambda: ads_scheme([0, 1, 3], 6), 1,
     "f709f5018a5cfa8076479a5ee7b4564b4d9707917af7f8427c2f0c1feb8a6488",
     None),
    (lambda: ads_scheme([0, 1], 6), 1,
     "2a242a5695a98410884c9421b621214e1a62ac70525fb6b8ffcef37feafbf033",
     None),
    (lambda: Scheme(ruzsa_ads(7)), 1,
     "0ea47df4a3f2b30f30181bc48fd63baab266a239e919c3f9c66e8c80e041c741",
     None),
    (lambda: Scheme(complement_ads(ruzsa_ads(5))), 1,
     "ec2130f77fd8c80557576dabd0fb07fb62e584c3e41b91ebe9809357ab6d55c3",
     None),
    (lambda: Scheme(ruzsa_ads(5)), 1,
     "3c6e229cb93f478abfc6925a058ae2a05fca039fde799b34b29773f0e739d95a",
     None),
    (lambda: Scheme(complement_ads(ruzsa_ads(3))), 1,
     "ea1dc215a0d1060cef1b4643943ed547a27e1971725d0c977cad2b1021217d07",
     None),
    (lambda: Scheme(ruzsa_ads(11)), 1,
     "a6ce4258e92bec5348d6633e1d7e187d981f20600749a0e21d61af69ac43efb0",
     None),
    (lambda: Scheme(complement_ads(ruzsa_ads(7))), 1,
     "0518ff4f7ff60f66cbe0a2aed66b894da9ea00abc5e0a56b832bc8d46ccace01",
     None),
], ids=["plane2", "plane3", "plane3-scale4", "plane7", "fano-complement",
        "paley11", "ads-634", "ads-620",
        "ruzsa7", "ruzsa5-complement", "ruzsa5", "ruzsa3-complement",
        "ruzsa11", "ruzsa7-complement"])
def test_sd_transcript_goldens(make_scheme, scale, lanes_digest, digest):
    """Every wire byte at seed 0, pinned, for both scheme kinds, and every
    node's decode re-checked.  lanes_digest pins the transcript with each
    sd message split into its power-sum lanes, the bytes sd transcripts
    had when every power sum was its own message, so every coded bit is
    as before; digest pins the wire itself (None: as lanes_digest, since
    ADS messages do not split).

    Plane 3 at scale 4 codes over GF(2^8) and GF(2^32); plane 7 over
    GF(2^3) and GF(2^24); the complement of Fano (7,4,2) and the Paley
    design (11,5,2) send off-diagonal values in lam = 2 segments; (6,2,0)
    sends pair sums and plain segments; the complements of ruzsa 3 and 5
    have pairs in 2 and 3, and in 12 and 13, common blocks.  Ruzsa 11 and
    the complement of ruzsa 7 are the benchmark's two largest ADS runs.
    """
    s = make_scheme()
    _, transcript, _ = run_end_to_end(s, seed=0, scale=scale)
    lanes = split_sd_lanes(s, transcript)
    assert lanes.total_bits == transcript.total_bits
    assert sha256_jsonl(lanes) == lanes_digest
    assert sha256_jsonl(transcript) == (digest or lanes_digest)


def test_plane_13_end_to_end():
    s = Scheme(projective_plane(3))
    load, _, _ = run_end_to_end(s, seed=3)
    assert load == ours_sd_load(13, 4) == Fraction(35, 52)


BAD_NODE = 2


def wrong_decoder(decode, fault):
    """decode, except that BAD_NODE's decode is wrong: the first value of
    its first row has a bit flipped, or the first row's first two values
    swap places, which leaves every reduce output as it was ("swap"), or,
    in a dict of its values, one key is dropped, or one key is added with
    its table value, an assigned output over a stored file
    ("extra-stored") or an output the node does not reduce over a file it
    lacks ("extra-unassigned")."""
    def wrong(s, node, transcript, ivs):
        got = decode(s, node, transcript, ivs)
        if node != BAD_NODE:
            return got
        if fault in ("flip", "swap"):
            rows = [list(row) for row in got.rows]
            if fault == "flip":
                rows[0][0] ^= 1
            else:
                assert rows[0][0] != rows[0][1]
                rows[0][:2] = rows[0][1::-1]
            return ValueRows(got.qs, got.ns, tuple(map(tuple, rows)))
        got = dict(got)
        first = min(got)
        if fault == "drop":
            del got[first]
        else:
            if fault == "extra-stored":
                key = (s.assignment[node][0], s.placement[node][0])
            else:
                key = (min(set(range(s.Q)) - set(s.assignment[node])),
                       min(set(range(s.N)) - set(s.placement[node])))
            assert key not in got
            got[key] = ivs.values[key]
        return got
    return wrong


@pytest.mark.parametrize("fault", ["flip", "swap", "drop", "extra-stored",
                                   "extra-unassigned"])
@pytest.mark.parametrize("make_scheme", [
    fano_scheme, lambda: ads_scheme([0, 1, 3], 6),
], ids=["fano", "ads-634"])
def test_run_verdict_on_a_wrong_decode(monkeypatch, make_scheme, fault):
    """run()'s own checks catch one node's bad decode: a flipped bit, two
    values swapped or a key too many gives decode_ok False, and a key too
    few raises IncompleteRecoveryError naming that node and pair."""
    s = make_scheme()
    for name in ("decode_sd", "decode_ads"):
        monkeypatch.setattr(shuffle, name,
                            wrong_decoder(getattr(shuffle, name), fault))
    if fault != "drop":
        assert not run(s, 0, choose_T(s)).decode_ok
        return
    with pytest.raises(IncompleteRecoveryError) as caught:
        run(s, 0, choose_T(s))
    assert (caught.value.node, caught.value.q, caught.value.n) == \
        (BAD_NODE,) + min(node_view(s, BAD_NODE).needed)


@pytest.mark.parametrize("make_scheme,encode,bound", [
    (lambda: Scheme(ruzsa_ads(7)), shuffle_ads, 1.5),
    (lambda: Scheme(projective_plane(5)), shuffle_sd, 4),
], ids=["ruzsa7", "plane5"])
def test_run_holds_one_node_decode_at_a_time(make_scheme, encode, bound):
    """run() decodes, checks and reduces one node at a time, so its peak
    allocation stays within a small factor of the values and transcript
    alone.  Holding every node's decode until the end measured 2.2 times
    that at ruzsa 7 and 9.4 times at plane 5."""
    s = make_scheme()
    T = choose_T(s)
    run(s, 0, T)  # fills the scheme's cached tables and the plan caches
    tracemalloc.start()
    try:
        encode(s, generate_ivs(s, 0, T))
        wire = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        run(s, 0, T)
        whole = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert whole < bound * wire, whole / wire


def cyclic_blocks(D, v):
    return [tuple(sorted((d + r) % v for d in D)) for r in range(v)]


def complement_blocks(v, blocks):
    return [tuple(sorted(set(range(v)) - set(b))) for b in blocks]


def quadratic_residues(p):
    return {x * x % p for x in range(1, p)}


@pytest.mark.parametrize("params,make_blocks,scale", [
    ((7, 4, 2), lambda: complement_blocks(7, CYCLIC_FANO), 1),
    ((7, 4, 2), lambda: complement_blocks(7, CYCLIC_FANO), 2),
    ((11, 5, 2), lambda: cyclic_blocks(quadratic_residues(11), 11), 1),
    ((11, 5, 2), lambda: cyclic_blocks(quadratic_residues(11), 11), 2),
    ((19, 9, 4), lambda: cyclic_blocks(quadratic_residues(19), 19), 1),
    ((15, 7, 3), lambda: cyclic_blocks([0, 1, 2, 4, 5, 8, 10], 15), 1),
    ((13, 9, 6), lambda: complement_blocks(13, projective_plane(3).blocks),
     1),
    ((23, 11, 5), lambda: cyclic_blocks(quadratic_residues(23), 23), 1),
    ((31, 25, 20), lambda: complement_blocks(31, projective_plane(5).blocks),
     1),
], ids=["fano-complement", "fano-complement-scale2", "paley11",
        "paley11-scale2", "paley19", "singer15", "plane3-complement",
        "paley23", "plane5-complement"])
def test_sd_lambda_at_least_two_end_to_end(params, make_blocks, scale):
    """lam >= 2: off-diagonal values go out in lam segments, each row as
    g - lam power sums over GF(2^(T/lam))."""
    design = require_symmetric_design(params[0], make_blocks())
    assert (design.v, design.t, design.lam) == params
    load, _, _ = run_end_to_end(Scheme(design), seed=5, scale=scale)
    assert load == ours_sd_load(design.v, design.t)


@pytest.mark.parametrize("make_scheme,decode", [
    (fano_scheme, decode_sd),
    (lambda: ads_scheme([0, 1, 3], 6), decode_ads),
    (lambda: ads_scheme([0, 1], 6), decode_ads),
], ids=["sd-fano", "ads-634", "ads-620"])
def test_decode_sd_uses_only_local_values(make_scheme, decode):
    """Zeroing every non-local table entry must not change any decode,
    each node decoding alone from an empty memo; nor must replacing those
    entries by None, so that a non-local read would raise TypeError (or
    put None in the decode)."""
    s = make_scheme()
    result = run(s, 4, choose_T(s))
    ivs = result.ivs
    for node in range(s.K):
        stored = set(s.placement[node])
        zeroed = doctored(ivs, lambda q, n, v: v if n in stored else 0)
        local = doctored(ivs, lambda q, n, v: v if n in stored else None)
        for table in (zeroed, local):
            assert decode(s, node, fresh(result.transcript), table) == \
                needed_values(s, ivs, node)


SHARED_SD_SCHEMES = {
    "fano": fano_scheme,
    "plane3": lambda: Scheme(projective_plane(3)),
    "paley11": lambda: Scheme(require_symmetric_design(
        11, cyclic_blocks(quadratic_residues(11), 11))),
}


@pytest.mark.parametrize("name", sorted(SHARED_SD_SCHEMES))
def test_decode_sd_shared_solves_match_per_node(name):
    """Decodes sharing one transcript's memo decode exactly what each node
    decodes alone.  With lam = 1 the t - 1 other blocks through a point
    lack the same points of a sender's group, so fewer systems are solved
    than the nodes pose; in (11,5,2) two blocks meet in a pair no third
    block holds, and nothing is shared."""
    s = SHARED_SD_SCHEMES[name]()
    result = run(s, 1, choose_T(s))
    shared, posed = fresh(result.transcript), 0
    for node in range(s.K):
        alone = fresh(result.transcript)
        got = decode_sd(s, node, alone, result.ivs)
        assert decode_sd(s, node, shared, result.ivs) == got == \
            needed_values(s, result.ivs, node)
        posed += len(alone.memo)
    assert (len(shared.memo) < posed) == (s.design.lam == 1)


@pytest.mark.parametrize("name", sorted(SHARED_SD_SCHEMES))
def test_decode_sd_shared_solves_keep_nodes_apart(name):
    """A memo first filled by decodes against other stored values, each
    with its lowest bit flipped, hands none of them on: a system is keyed
    by the payload and the decoding node's own segments, so every node
    still decodes exactly."""
    s = SHARED_SD_SCHEMES[name]()
    result = run(s, 2, choose_T(s))
    ivs = result.ivs
    flipped = doctored(ivs, lambda q, n, v: v ^ 1)
    shared = fresh(result.transcript)
    wrong = 0
    for node in range(s.K):
        wrong += decode_sd(s, node, shared, flipped) != \
            needed_values(s, ivs, node)
    assert wrong > 0
    for node in range(s.K):
        assert decode_sd(s, node, shared, ivs) == needed_values(s, ivs, node)


@pytest.mark.parametrize("name", ["fano", "plane3"])
def test_decode_sd_cancels_own_terms_once_per_system(name, monkeypatch):
    """Over a full decode, decode_sd applies one power-sum plan per own
    segment of each distinct system, the last part of its memo key, and
    none for a system already in the memo: fewer than the nodes pose
    when each decodes alone, since at lam = 1 the t - 1 other blocks
    through a point pose each system."""
    s = SHARED_SD_SCHEMES[name]()
    result = run(s, 3, choose_T(s))
    applied = []

    def counted(width, j, count):
        applied.append(j)
        return power_sum_plan(width, j, count)

    monkeypatch.setattr(shuffle, "power_sum_plan", counted)
    shared = fresh(result.transcript)
    for node in range(s.K):
        decode_sd(s, node, shared, result.ivs)
    assert len(applied) == sum(len(own) for *_, own in shared.memo) > 0
    del applied[:]
    for node in range(s.K):
        decode_sd(s, node, fresh(result.transcript), result.ivs)
    assert len(applied) > sum(len(own) for *_, own in shared.memo)


def sd_readers(s, message):
    """Nodes other than the sender that need a value of the message's
    coding group, worked out from the design alone."""
    block = s.placement[message.sender]
    if message.tag == "SD-diagonal":
        values = [(x, x) for x in block]
    else:
        x = message.meta[0]
        values = [(x, y) for y in block if y != x]
    return {node for node in range(s.K) if node != message.sender
            and not node_view(s, node).needed.isdisjoint(values)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SHARED_SD_SCHEMES)), st.integers(0, 3),
       st.data())
def test_decode_sd_shared_solves_under_tampering(name, seed, data):
    """Flip one payload bit of one message and decode the nodes in a drawn
    order: each decode sharing the memo agrees with the node's decode
    alone, every reader of that message decodes a wrong value, and every
    other node decodes exactly."""
    s = SHARED_SD_SCHEMES[name]()
    result = run(s, seed, choose_T(s))
    messages = list(result.transcript.messages)
    i = data.draw(st.integers(0, len(messages) - 1))
    m = messages[i]
    bit = data.draw(st.integers(0, m.bits - 1))
    messages[i] = m._replace(payload=m.payload ^ (1 << bit))
    tampered = Transcript(tuple(messages))
    readers = sd_readers(s, m)
    assert readers
    for node in data.draw(st.permutations(range(s.K))):
        got = decode_sd(s, node, tampered, result.ivs)
        assert decode_sd(s, node, fresh(tampered), result.ivs) == got
        exact = all(value == result.ivs.values[key]
                    for key, value in got.items())
        assert exact == (node not in readers), node


class LoggedKeys(dict):
    """A transcript's by_key table that logs every key looked up."""

    def __init__(self, table):
        super().__init__(table)
        self.looked_up = []

    def __getitem__(self, key):
        self.looked_up.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.looked_up.append(key)
        return super().get(key, default)


@pytest.mark.parametrize("name", sorted(SHARED_SD_SCHEMES))
def test_decode_sd_reads_each_group_with_one_lookup(name):
    """A node looks up exactly the messages of the groups it reads, each
    once: one message holds a sender's whole share of a group."""
    s = SHARED_SD_SCHEMES[name]()
    result = run(s, 0, choose_T(s))
    transcript = fresh(result.transcript)
    for node in range(s.K):
        logged = transcript.by_key = LoggedKeys(result.transcript.by_key)
        decode_sd(s, node, transcript, result.ivs)
        assert sorted(logged.looked_up) == sorted(
            (m.sender, m.tag, m.meta) for m in result.transcript.messages
            if node in sd_readers(s, m))


def replace_message(transcript, i, message):
    """The transcript with message i replaced, or deleted when message is
    None."""
    messages = list(transcript.messages)
    if message is None:
        del messages[i]
    else:
        messages[i] = message
    return Transcript(tuple(messages))


def test_decode_sd_missing_message():
    """Delete each message of Fano and of plane 3 in turn: alone and after
    the nodes before it have filled the memo, every reader raises
    MissingMessageError naming itself and that message's key, and every
    other node decodes exactly."""
    for s in (fano_scheme(), SHARED_SD_SCHEMES["plane3"]()):
        check_missing_messages(s)


def check_missing_messages(s):
    result = run(s, 0, choose_T(s))
    for i, m in enumerate(result.transcript.messages):
        truncated = replace_message(result.transcript, i, None)
        readers = sd_readers(s, m)
        assert readers
        for node in range(s.K):
            for transcript in (fresh(truncated), truncated):
                if node in readers:
                    with pytest.raises(MissingMessageError) as caught:
                        decode_sd(s, node, transcript, result.ivs)
                    assert caught.value.node == node
                    assert caught.value.key == (m.sender, m.tag, m.meta)
                else:
                    assert decode_sd(s, node, transcript, result.ivs) == \
                        needed_values(s, result.ivs, node)


@pytest.mark.parametrize("name", ["fano", "plane3"])
def test_decode_sd_payload_range_checked(name):
    """A payload holds a group's power sums, count lanes of width bits in
    m.bits = count * width.  Unchecked, apply_plan would silently drop a
    bit at m.bits or past it and misread a negative payload.  Set that
    bit, or make the payload negative, in each message in turn: every
    reader raises FieldError, alone and after the nodes before it have
    filled the memo, and every other node decodes exactly.  On Fano,
    message 0 is read by nodes 1-6."""
    s = SHARED_SD_SCHEMES[name]()
    result = run(s, 0, choose_T(s))
    if name == "fano":
        m = result.transcript.messages[0]
        assert (m.sender, m.tag, m.meta) == (0, "SD-diagonal", ())
        assert sd_readers(s, m) == set(range(1, 7))
    for i, m in enumerate(result.transcript.messages):
        readers = sd_readers(s, m)
        for payload in (m.payload | 1 << m.bits, -1 - m.payload):
            bad = replace_message(result.transcript, i,
                                  m._replace(payload=payload))
            for node in range(s.K):
                if node not in readers:
                    assert decode_sd(s, node, bad, result.ivs) == \
                        needed_values(s, result.ivs, node)
                    continue
                for transcript in (fresh(bad), bad):
                    with pytest.raises(FieldError):
                        decode_sd(s, node, transcript, result.ivs)


SHARED_ADS_SCHEMES = {
    "ads-634": lambda: ads_scheme([0, 1, 3], 6),
    "golomb-620": lambda: ads_scheme([0, 1], 6),
    "ruzsa5": lambda: Scheme(ruzsa_ads(5)),
    "ruzsa3-complement": lambda: Scheme(complement_ads(ruzsa_ads(3))),
}


def ads_group(message):
    """The message group a message belongs to: (tag, q, n)."""
    return (message.tag,) + message.meta[:2]


@pytest.mark.parametrize("name", sorted(SHARED_ADS_SCHEMES))
def test_decode_ads_shared_memo_match_per_node(name):
    """Decodes sharing one transcript's memo decode exactly what each node
    decodes alone, and the memo ends up holding one scope, keyed by T and
    the placement, with each message group of the run in it once: a pair
    sum under its pair, a plain segment group under its orientation, each
    entry the join of that group's payloads.  The placement fixes every
    group's senders."""
    s = SHARED_ADS_SCHEMES[name]()
    result = run(s, 1, choose_T(s))
    shared = fresh(result.transcript)
    for node in range(s.K):
        got = decode_ads(s, node, fresh(result.transcript), result.ivs)
        assert decode_ads(s, node, shared, result.ivs) == got == \
            needed_values(s, result.ivs, node)
    assert list(shared.memo) == [(result.ivs.T, s.placement)]
    joined = shared.memo[result.ivs.T, s.placement]
    groups = {}
    for m in result.transcript.messages:
        groups.setdefault(ads_group(m), []).append(m)
    assert len(joined) == len(groups)
    assert set(joined) == {(q, n) for _, q, n in groups}
    for (tag, q, n), members in groups.items():
        members.sort(key=lambda m: m.meta[2])
        assert [m.meta[2] for m in members] == list(range(len(members)))
        assert tuple(m.sender for m in members) == (
            s.pair_blocks[q, n] if tag == "ADS-pairsum"
            else s.point_blocks[n])
        assert joined[q, n] == join_bits([m.payload for m in members],
                                         members[0].bits)


@pytest.mark.parametrize("name", sorted(SHARED_ADS_SCHEMES))
def test_decode_ads_shared_memo_keeps_nodes_apart(name):
    """A memo first filled by decodes against other stored values hands
    none of them on: it holds joined payloads only, so every node still
    decodes exactly."""
    s = SHARED_ADS_SCHEMES[name]()
    result = run(s, 2, choose_T(s))
    ivs = result.ivs
    flipped = doctored(ivs, lambda q, n, v: v ^ 1)
    shared = fresh(result.transcript)
    for node in range(s.K):
        decode_ads(s, node, shared, flipped)
    for node in range(s.K):
        assert decode_ads(s, node, shared, ivs) == needed_values(s, ivs, node)


def ads_readers(s, message):
    """Nodes that need a value the message carries, worked out from the
    design alone: either orientation of a pair sum, the one orientation
    of a plain segment."""
    q, n = message.meta[:2]
    values = [(q, n), (n, q)] if message.tag == "ADS-pairsum" else [(q, n)]
    return {node for node in range(s.K)
            if not node_view(s, node).needed.isdisjoint(values)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SHARED_ADS_SCHEMES)), st.integers(0, 3),
       st.data())
def test_decode_ads_under_tampering(name, seed, data):
    """Flip one payload bit of one message and decode the nodes in a drawn
    order: each decode sharing the memo agrees with the node's decode
    alone, every reader of that message decodes a wrong value, and every
    other node decodes exactly."""
    s = SHARED_ADS_SCHEMES[name]()
    result = run(s, seed, choose_T(s))
    messages = list(result.transcript.messages)
    i = data.draw(st.integers(0, len(messages) - 1))
    m = messages[i]
    bit = data.draw(st.integers(0, m.bits - 1))
    messages[i] = m._replace(payload=m.payload ^ (1 << bit))
    tampered = Transcript(tuple(messages))
    readers = ads_readers(s, m)
    assert readers and m.sender not in readers
    for node in data.draw(st.permutations(range(s.K))):
        got = decode_ads(s, node, tampered, result.ivs)
        assert decode_ads(s, node, fresh(tampered), result.ivs) == got
        exact = all(value == result.ivs.values[key]
                    for key, value in got.items())
        assert exact == (node not in readers), node


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(SHARED_ADS_SCHEMES)), st.data())
def test_decode_ads_missing_message(name, data):
    """Delete one message: alone and after the nodes before it have
    filled the memo, every reader raises MissingMessageError naming
    itself and that message's key, and every other node decodes
    exactly."""
    s = SHARED_ADS_SCHEMES[name]()
    result = run(s, 0, choose_T(s))
    messages = list(result.transcript.messages)
    m = messages.pop(data.draw(st.integers(0, len(messages) - 1)))
    truncated = Transcript(tuple(messages))
    assert truncated.total_bits == result.transcript.total_bits - m.bits
    readers = ads_readers(s, m)
    assert readers
    for node in range(s.K):
        for transcript in (fresh(truncated), truncated):
            if node in readers:
                with pytest.raises(MissingMessageError) as caught:
                    decode_ads(s, node, transcript, result.ivs)
                assert caught.value.node == node
                assert caught.value.key == (m.sender, m.tag, m.meta)
            else:
                assert decode_ads(s, node, transcript, result.ivs) == \
                    needed_values(s, result.ivs, node)


def ads_kind(s, m):
    """Which ADS message group m belongs to: a pair sum of one sender or
    of several, or a plain segment."""
    if m.tag == "ADS-segment":
        return "segment"
    return "one-sender" if len(s.pair_blocks[m.meta[:2]]) == 1 \
        else "multi-sender"


@pytest.mark.parametrize("name,kind", [
    ("golomb-620", "one-sender"), ("golomb-620", "segment"),
    ("ruzsa5", "one-sender"), ("ruzsa5", "segment"),
    ("ads-634", "one-sender"), ("ads-634", "multi-sender"),
    ("ruzsa3-complement", "multi-sender"),
])
def test_decode_ads_payload_range_checked(name, kind):
    """A payload of bits bits lies in [0, 2^bits): set the first message
    of the kind to 2^bits, or to -1.  Every reader raises ValueError,
    alone and after the nodes before it have filled the memo, and every
    other node decodes exactly."""
    s = SHARED_ADS_SCHEMES[name]()
    result = run(s, 0, choose_T(s))
    i, m = next((i, m) for i, m in enumerate(result.transcript.messages)
                if ads_kind(s, m) == kind)
    readers = ads_readers(s, m)
    assert readers
    for payload in (1 << m.bits, -1):
        bad = replace_message(result.transcript, i,
                              m._replace(payload=payload))
        for node in range(s.K):
            if node not in readers:
                assert decode_ads(s, node, bad, result.ivs) == \
                    needed_values(s, result.ivs, node)
                continue
            for transcript in (fresh(bad), bad):
                with pytest.raises(ValueError):
                    decode_ads(s, node, transcript, result.ivs)


@pytest.mark.parametrize("name,kind", [
    ("golomb-620", "segment"), ("ruzsa5", "segment"),
    ("ads-634", "multi-sender"), ("ruzsa3-complement", "multi-sender"),
])
def test_shuffle_ads_range_checks_the_values_it_cuts(name, kind):
    """The encoder cuts a plain segment's value, or a pair sum shared by
    c >= 2 blocks, into slices, and refuses a value outside [0, 2^T)
    with ValueError, in either orientation: here one table value is set
    to 2^T above itself, or made negative."""
    s = SHARED_ADS_SCHEMES[name]()
    ivs = generate_ivs(s, 0, choose_T(s))
    m = next(m for m in shuffle_ads(s, ivs).messages if ads_kind(s, m) == kind)
    q, n = m.meta[:2]
    for key in (q, n), (n, q):
        for change in (lambda v: v | 1 << ivs.T, lambda v: -1 - v):
            bad = doctored(ivs, lambda x, y, v: change(v)
                           if (x, y) == key else v)
            with pytest.raises(ValueError, match="does not fit"):
                shuffle_ads(s, bad)


ANY_ORDER_SCHEMES = {**SHARED_SD_SCHEMES, **SHARED_ADS_SCHEMES}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ANY_ORDER_SCHEMES)), st.integers(0, 3),
       st.data())
def test_decodes_share_the_memo_in_any_order(name, seed, data):
    """Decode the nodes of a fresh transcript in a drawn order: each node
    gets exactly the values it needs, and the memo ends as large as after
    decode_all in node order."""
    s = ANY_ORDER_SCHEMES[name]()
    result = run(s, seed, choose_T(s))
    ivs = result.ivs
    _, decode = coders(s)
    transcript = fresh(result.transcript)
    for node in data.draw(st.permutations(range(s.K))):
        assert decode(s, node, transcript, ivs) == needed_values(s, ivs, node)
    in_order = fresh(result.transcript)
    assert [node for node, _ in decode_all(s, in_order, ivs)] == \
        list(range(s.K))
    assert memo_entries(s, transcript) == memo_entries(s, in_order) > 0


@pytest.mark.parametrize("name", sorted(ANY_ORDER_SCHEMES))
def test_message_count_matches_the_transcript(name):
    """The count choose_T bounds, worked out from the design's parameters,
    is the number of messages the run sends."""
    s = ANY_ORDER_SCHEMES[name]()
    assert s.message_count == len(transcript_for(s, 0).messages)


def memo_entries(s, transcript):
    """Entries in a transcript's decode memo: its solved systems (sd), or
    the joined message groups inside its one scope (ads)."""
    if s.kind == "sd":
        return len(transcript.memo)
    (scope,) = transcript.memo.values()
    return len(scope)


def test_ads_634_end_to_end():
    s = Scheme(classify_ads([0, 1, 3], 6))
    load, transcript, _ = run_end_to_end(s)
    assert load == ads_load(6, 3, 1) == Fraction(5, 12)
    mine = [(m.meta, m.bits) for m in transcript.messages if m.sender == 0]
    assert mine == [((0, 1, 0), 2), ((0, 3, 0), 1), ((1, 3, 0), 2)]


def test_ads_pair_widths_match_common_blocks():
    """Each pair moves T bits total, split over its common blocks."""
    s = ads_scheme([0, 1, 3], 6)
    T = choose_T(s)
    transcript = transcript_for(s, 1)
    per_pair = {}
    for m in transcript.messages:
        per_pair.setdefault(m.meta[:2], []).append(m.bits)
    assert set(per_pair) == {(x, y) for x in range(6) for y in range(x + 1, 6)}
    for widths in per_pair.values():
        assert sum(widths) == T
        assert len(set(widths)) == 1


@pytest.mark.parametrize("make_scheme,wrong", [
    (fano_scheme, (shuffle_ads, decode_ads)),
    (lambda: ads_scheme([0, 1, 3], 6), (shuffle_sd, decode_sd)),
], ids=["sd-scheme", "ads-scheme"])
def test_coders_reject_the_other_kind(make_scheme, wrong):
    """Each encoder and decoder takes only its own kind of scheme."""
    s = make_scheme()
    result = run(s, 0, choose_T(s))
    encode, decode = wrong
    expected = "ads" if s.kind == "sd" else "sd"
    with pytest.raises(SchemeParameterError,
                       match=f"expected an {expected} scheme, got {s.kind}"):
        encode(s, result.ivs)
    with pytest.raises(SchemeParameterError,
                       match=f"expected an {expected} scheme, got {s.kind}"):
        decode(s, 0, fresh(result.transcript), result.ivs)


def test_ads_census_names_a_broken_development():
    """A placement that is no ADS development, block 1 of (6,3,1) replaced
    by a copy of block 0, fails the pair census with a named error.  The
    placement is set before any incidence is read from it."""
    s = ads_scheme([0, 1, 3], 6)
    blocks = list(s.placement)
    blocks[1] = blocks[0]
    s.placement = tuple(blocks)
    lam = s.design.source.lam
    counts = {(x, y): len(s.pair_blocks.get((x, y), ()))
              for x in range(s.N) for y in range(x + 1, s.N)}
    off = {pair: c for pair, c in counts.items() if c not in (lam, lam + 1)}
    assert off == {(0, 3): 3, (1, 2): 0, (2, 4): 0}
    with pytest.raises(SchemeParameterError,
                       match=r"pair \(0,3\) lies in 3 blocks, expected 1 or 2"):
        shuffle_ads(s, generate_ivs(s, 0, choose_T(s)))


def test_golomb_623_end_to_end():
    s = Scheme(classify_ads([0, 1], 6))
    load, transcript, _ = run_end_to_end(s)
    assert load == ads_load(6, 2, 0) == Fraction(2, 3)
    mine = [m for m in transcript.messages if m.sender == 0]
    assert [(m.tag, m.meta) for m in mine if m.tag == "ADS-pairsum"] == \
        [("ADS-pairsum", (0, 1, 0))]
    segs = sorted(m.meta for m in mine if m.tag == "ADS-segment")
    assert segs == [(2, 0, 0), (3, 0, 0), (3, 1, 0),
                    (4, 0, 0), (4, 1, 0), (5, 1, 0)]
    assert all(m.bits == 1 for m in mine if m.tag == "ADS-segment")


@pytest.mark.parametrize("p", [5, 7, 11])
def test_ruzsa_end_to_end(p):
    a = ruzsa_ads(p)
    s = Scheme(a)
    load, _, _ = run_end_to_end(s, seed=p)
    assert load == ads_load(a.n, a.k, 0)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ruzsa_complement_end_to_end(p):
    """Complements have lam >= 1 and hit the (n-1)/2n load exactly."""
    a = complement_ads(ruzsa_ads(p))
    assert a.lam >= 1
    s = Scheme(a)
    load, _, _ = run_end_to_end(s)
    assert load == ads_load(a.n, a.k, a.lam) == Fraction(a.n - 1, 2 * a.n)


@pytest.mark.parametrize("D,n", [([0, 1, 3], 6), ([0, 1], 6)],
                         ids=["lam1", "lam0"])
def test_ads_widest_scale_decodes(D, n):
    """Scale 64, the widest an ADS width goes, still decodes exactly at
    the formula's load; scale 65 is refused."""
    s = ads_scheme(D, n)
    a = s.design.source
    load, _, _ = run_end_to_end(s, seed=3, scale=64)
    assert load == ads_load(a.n, a.k, a.lam)
    with pytest.raises(SchemeParameterError):
        choose_T(s, 65)


def test_scaled_width_keeps_load():
    s = Scheme(require_symmetric_design(7, CYCLIC_FANO))
    load, _, _ = run_end_to_end(s, seed=2, scale=4)
    assert load == Fraction(11, 21)


def test_transcript_canonical_order():
    transcript = transcript_for(ads_scheme([0, 1], 6), 0)
    keys = [(m.sender, m.tag, m.meta) for m in transcript.messages]
    assert keys == sorted(keys)


def test_transcript_orders_its_messages():
    """A transcript built from its messages in any order keeps them in the
    canonical (sender, tag, meta) order, under the same keys."""
    for s in (fano_scheme(), ads_scheme([0, 1, 3], 6)):
        transcript = transcript_for(s, 0)
        reversed_ = Transcript(transcript.messages[::-1])
        assert reversed_.messages == transcript.messages
        assert reversed_.by_key == transcript.by_key


def test_transcript_jsonl_round_trip():
    """Each line is one message: sender, tag, meta, bits, and the payload
    as ceil(bits/8) big-endian bytes in hex."""
    transcript = transcript_for(fano_scheme(), 6)
    text = transcript_to_jsonl(transcript)
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == len(transcript.messages)
    for line, m in zip(lines, transcript.messages):
        doc = json.loads(line)
        payload = bytes.fromhex(doc["payload"])
        assert len(payload) == (m.bits + 7) // 8
        assert Message(sender=doc["sender"], tag=doc["tag"],
                       meta=tuple(doc["meta"]), bits=doc["bits"],
                       payload=int.from_bytes(payload, "big")) == m


def canonical_line(m):
    """The canonical json.dumps of one message, as a transcript line."""
    return json.dumps(
        {"sender": m.sender, "tag": m.tag, "meta": list(m.meta),
         "bits": m.bits,
         "payload": m.payload.to_bytes((m.bits + 7) // 8, "big").hex()},
        separators=(",", ":"), sort_keys=True) + "\n"


def jsonl_lines(transcript):
    """The writer's lines, each ending in its newline: json.dumps escapes
    every control and non-ASCII character, so each line's newline is the
    only line break str.splitlines finds."""
    return "".join(transcript_chunks(transcript)).splitlines(True)


@pytest.mark.parametrize("make_scheme,scale,tags,meta_lengths,widths", [
    (fano_scheme, 1, {"SD-diagonal", "SD-offdiagonal"}, {0, 1}, {4, 6}),
    (lambda: ads_scheme([0, 1], 6), 1, {"ADS-pairsum", "ADS-segment"}, {3},
     {1, 2}),
    (lambda: Scheme(complement_ads(ruzsa_ads(5))), 3,
     {"ADS-pairsum"}, {3}, {36, 39}),
    (lambda: Scheme(projective_plane(3)), 4,
     {"SD-diagonal", "SD-offdiagonal"}, {0, 1}, {24, 64}),
], ids=["fano", "golomb-620", "ruzsa5-complement-scale3", "plane3-scale4"])
def test_transcript_lines_match_json_dumps(make_scheme, scale, tags,
                                           meta_lengths, widths):
    """The writer formats each line itself; every line is byte for byte
    the canonical json.dumps of the message.  The complement of ruzsa 5
    (lam = 12) at scale 3 sends payloads of 5 bytes, neither width a
    multiple of 8."""
    s = make_scheme()
    transcript = run(s, 3, choose_T(s, scale)).transcript
    assert {m.tag for m in transcript.messages} == tags
    assert {len(m.meta) for m in transcript.messages} == meta_lengths
    assert {m.bits for m in transcript.messages} == widths
    lines = jsonl_lines(transcript)
    assert len(lines) == len(transcript.messages)
    for line, m in zip(lines, transcript.messages):
        assert line == canonical_line(m)
    assert transcript_to_jsonl(transcript) == "".join(lines)


def test_transcript_lines_of_every_shape():
    """A hand-built transcript whose (tag, meta length, bits) changes at
    every message, payloads 0 and 2^bits - 1, tags holding JSON escapes,
    line breaks and % signs: every line is the canonical json.dumps of
    its message.
    A payload too wide for its ceil(bits/8) bytes, or a negative one,
    raises OverflowError, as int.to_bytes does."""
    tags = ["ADS-pairsum", 'a "%s" \\ %% tag', "SD-diagonal",
            "\u00e9\n\x1c\u2028"]
    messages = [Message(sender=i // 4, tag=tags[i % 4], meta=tuple(
        range(i % 3 + (i & 1))), bits=1 + 3 * i, payload=(1 << 1 + 3 * i) - 1
        if i % 5 else 0) for i in range(40)]
    transcript = Transcript(messages)
    shapes = [(m.tag, len(m.meta), m.bits) for m in transcript.messages]
    assert all(a != b for a, b in zip(shapes, shapes[1:]))
    lines = jsonl_lines(transcript)
    assert lines == list(map(canonical_line, transcript.messages))
    assert transcript_to_jsonl(transcript) == "".join(lines)
    for i in (0, 17, 39):
        m = transcript.messages[i]
        for payload in (1 << 8 * ((m.bits + 7) // 8), -1):
            bad = replace_message(transcript, i, m._replace(payload=payload))
            with pytest.raises(OverflowError):
                jsonl_lines(bad)
            with pytest.raises(OverflowError):
                transcript_to_jsonl(bad)


def test_transcript_chunks_are_bounded_whole_lines():
    """The writer streams the transcript in pieces of whole lines, at most
    shuffle._CHUNK each, never the whole transcript as one string."""
    transcript = transcript_for(SHARED_ADS_SCHEMES["ruzsa5"](), 0)
    assert len(transcript.messages) > 2 * shuffle._CHUNK
    chunks = list(transcript_chunks(transcript))
    assert len(chunks) == -(-len(transcript.messages) // shuffle._CHUNK)
    assert all(c.endswith("\n") and c.count("\n") <= shuffle._CHUNK
               for c in chunks)
    assert "".join(chunks) == transcript_to_jsonl(transcript)


def test_transcript_rejects_duplicate_keys():
    """Two messages under one (sender, tag, meta) key would let a decoder
    read either payload, so building such a transcript fails."""
    first = Message(sender=0, tag="ADS-pairsum", meta=(0, 1, 0), bits=2,
                    payload=1)
    second = Message(sender=0, tag="ADS-pairsum", meta=(0, 1, 0), bits=2,
                     payload=2)
    with pytest.raises(ValueError, match="share the key"):
        Transcript((first, second))


def test_transcript_counts_its_bits():
    """total_bits is worked out from the messages, so no transcript can
    disagree with them."""
    messages = tuple(Message(sender=0, tag="ADS-pairsum", meta=(0, 1, j),
                             bits=3 + j, payload=0) for j in range(3))
    assert Transcript(messages).total_bits == 12
    assert Transcript(()).total_bits == 0
