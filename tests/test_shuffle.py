import random
from fractions import Fraction

import pytest

from cdcsim.analysis import ads_load, ours_sd_load
from cdcsim.designs import (classify_ads, complement_ads, develop,
                            projective_plane, require_symmetric_design,
                            ruzsa_ads)
from cdcsim.gf import BinaryField
from cdcsim.scheme import (IVTable, build_scheme_ads, build_scheme_sd,
                           centralized_outputs, choose_T, node_view,
                           reduce_outputs)
from cdcsim.shuffle import (Message, MissingMessageError, Transcript,
                            decode_ads, decode_sd, join_bits, run, split_bits,
                            transcript_from_jsonl, transcript_to_jsonl)

CYCLIC_FANO = [tuple(sorted((d + r) % 7 for d in (0, 1, 3))) for r in range(7)]


def fano_scheme():
    return build_scheme_sd(require_symmetric_design(7, CYCLIC_FANO))


def ads_scheme(D, n):
    return build_scheme_ads(develop(classify_ads(D, n)))


def transcript_for(s, seed):
    return run(s, seed, choose_T(s)).transcript


def run_end_to_end(s, seed=0, scale=1):
    """Run the pipeline, then re-check every decode and the reduce."""
    result = run(s, seed, choose_T(s, scale))
    ivs = result.ivs
    assert set(result.recovered) == set(range(s.K))
    for node, got in result.recovered.items():
        assert set(got) == set(node_view(s, node).needed)
        for key, value in got.items():
            assert value == ivs.values[key], (node, key)
    outputs = reduce_outputs(s, ivs, result.recovered)
    oracle = centralized_outputs(s, ivs)
    for node, per_node in outputs.items():
        for q, value in per_node.items():
            assert value == oracle[q]
    assert result.decode_ok
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
    s = build_scheme_sd(require_symmetric_design(7, CYCLIC_FANO))
    load, transcript, _ = run_end_to_end(s)
    assert load == Fraction(11, 21)
    assert load == ours_sd_load(7, 3)
    assert transcript.total_bits == 154
    for node in range(7):
        assert sum(m.sender == node for m in transcript.messages) == 5


def test_fano_payload_goldens():
    """Spot-check the coded signals of node 0 against hand encoding."""
    s = fano_scheme()
    result = run(s, 9, choose_T(s))
    T, ivs, by_key = result.ivs.T, result.ivs, result.transcript.by_key
    # block 0 is (0,1,3); it is block 0 of the lists through 0, 1, and 3,
    # so it holds segment 0 of each diagonal value
    segs = [split_bits(ivs.values[(x, x)], T, 3)[0] for x in (0, 1, 3)]
    assert by_key[(0, "SD-diagonal", (0,))].payload == segs[0] ^ segs[1] ^ segs[2]
    f = BinaryField(T // 3)
    assert by_key[(0, "SD-diagonal", (1,))].payload == \
        segs[1] ^ f.mul(2, segs[2])
    # lam = 1: off-diagonal rows carry whole values, power 0 is a plain XOR
    assert by_key[(0, "SD-offdiagonal", (0, 0))].payload == \
        ivs.values[(0, 1)] ^ ivs.values[(0, 3)]
    assert by_key[(0, "SD-offdiagonal", (1, 0))].payload == \
        ivs.values[(1, 0)] ^ ivs.values[(1, 3)]


def test_plane_13_end_to_end():
    s = build_scheme_sd(projective_plane(3))
    load, _, _ = run_end_to_end(s, seed=3)
    assert load == ours_sd_load(13, 4) == Fraction(35, 52)


@pytest.mark.parametrize("make_scheme,decode", [
    (fano_scheme, decode_sd),
    (lambda: ads_scheme([0, 1, 3], 6), decode_ads),
    (lambda: ads_scheme([0, 1], 6), decode_ads),
], ids=["sd-fano", "ads-634", "ads-620"])
def test_decode_sd_uses_only_local_values(make_scheme, decode):
    """Zeroing every non-local table entry must not change any decode."""
    s = make_scheme()
    result = run(s, 4, choose_T(s))
    ivs = result.ivs
    for node in range(s.K):
        stored = set(s.placement[node])
        doctored = IVTable(T=ivs.T, values={
            key: value if key[1] in stored else 0
            for key, value in ivs.values.items()})
        assert decode(s, node, result.transcript, doctored) == \
            result.recovered[node]


def test_decode_sd_missing_message():
    s = fano_scheme()
    result = run(s, 0, choose_T(s))
    truncated = Transcript(messages=result.transcript.messages[1:],
                           total_bits=result.transcript.total_bits)
    with pytest.raises(MissingMessageError):
        decode_sd(s, 5, truncated, result.ivs)


def test_ads_634_end_to_end():
    s = build_scheme_ads(develop(classify_ads([0, 1, 3], 6)))
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


def test_golomb_623_end_to_end():
    s = build_scheme_ads(develop(classify_ads([0, 1], 6)))
    load, transcript, _ = run_end_to_end(s)
    assert load == ads_load(6, 2, 0) == Fraction(2, 3)
    mine = [m for m in transcript.messages if m.sender == 0]
    assert [(m.tag, m.meta) for m in mine if m.tag == "ADS-pairsum"] == \
        [("ADS-pairsum", (0, 1, 0))]
    segs = sorted(m.meta for m in mine if m.tag == "ADS-segment")
    assert segs == [(2, 0, 0), (3, 0, 0), (3, 1, 0),
                    (4, 0, 0), (4, 1, 0), (5, 1, 0)]
    assert all(m.bits == 1 for m in mine if m.tag == "ADS-segment")


@pytest.mark.parametrize("p", [5, 7])
def test_ruzsa_end_to_end(p):
    a = ruzsa_ads(p)
    s = build_scheme_ads(develop(a))
    load, _, _ = run_end_to_end(s, seed=p)
    assert load == ads_load(a.n, a.k, 0)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ruzsa_complement_end_to_end(p):
    """Complements have lam >= 1 and hit the (n-1)/2n load exactly."""
    a = complement_ads(ruzsa_ads(p))
    assert a.lam >= 1
    s = build_scheme_ads(develop(a))
    load, _, _ = run_end_to_end(s)
    assert load == ads_load(a.n, a.k, a.lam) == Fraction(a.n - 1, 2 * a.n)


def test_scaled_width_keeps_load():
    s = build_scheme_sd(require_symmetric_design(7, CYCLIC_FANO))
    load, _, _ = run_end_to_end(s, seed=2, scale=4)
    assert load == Fraction(11, 21)


def test_transcript_canonical_order():
    transcript = transcript_for(ads_scheme([0, 1], 6), 0)
    keys = [(m.sender, m.tag, m.meta) for m in transcript.messages]
    assert keys == sorted(keys)


def test_transcript_jsonl_round_trip():
    transcript = transcript_for(fano_scheme(), 6)
    text = transcript_to_jsonl(transcript)
    again = transcript_from_jsonl(text)
    assert again == transcript
    assert transcript_to_jsonl(again) == text
    assert text.count("\n") == len(transcript.messages)


def test_transcript_rejects_duplicate_keys():
    """Two messages under one (sender, tag, meta) key would let a decoder
    read either payload, so building such a transcript fails."""
    first = Message(sender=0, tag="ADS-pairsum", meta=(0, 1, 0), bits=2,
                    payload=1)
    second = Message(sender=0, tag="ADS-pairsum", meta=(0, 1, 0), bits=2,
                     payload=2)
    with pytest.raises(ValueError, match="share the key"):
        Transcript(messages=(first, second), total_bits=4)
    text = transcript_to_jsonl(transcript_for(fano_scheme(), 0))
    first_line = text.splitlines()[0]
    with pytest.raises(ValueError, match="share the key"):
        transcript_from_jsonl(first_line + "\n" + text)
