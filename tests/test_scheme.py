import hashlib
import json
import math
import tracemalloc

import pytest

from cdcsim import scheme
from cdcsim.designs import (AlmostDifferenceSet, DesignParameterError,
                            classify_ads, complement_ads, develop,
                            projective_plane, require_symmetric_design,
                            ruzsa_ads)
from cdcsim.gf import FieldError
from cdcsim.scheme import (IncompleteRecoveryError, Scheme,
                           SchemeParameterError, ValueRows,
                           centralized_outputs, choose_T, generate_ivs,
                           node_view, picker, reduce_outputs, scheme_to_json)

CYCLIC_FANO = [tuple(sorted((d + r) % 7 for d in (0, 1, 3))) for r in range(7)]


def fano_scheme():
    return Scheme(require_symmetric_design(7, CYCLIC_FANO))


def test_sd_scheme_shape():
    s = fano_scheme()
    assert (s.kind, s.K, s.N, s.Q, s.r, s.s) == ("sd", 7, 7, 7, 3, 4)
    assert s.placement[0] == (0, 1, 3)
    assert s.assignment[0] == (2, 4, 5, 6)
    for block, comp in zip(s.placement, s.assignment):
        assert sorted(block + comp) == list(range(7))


def test_sd_scheme_rejects_tight_designs():
    # (3,2,1): every pair of blocks already shares all but one point
    with pytest.raises(SchemeParameterError):
        Scheme(require_symmetric_design(3, [(0, 1), (0, 2), (1, 2)]))


def test_ads_scheme_shape():
    a = classify_ads([0, 1, 3], 6)
    s = Scheme(a)
    assert (s.kind, s.K, s.N, s.Q, s.r, s.s) == ("ads", 6, 6, 6, 3, 3)
    assert s.placement == s.assignment
    assert s.placement[4] == (1, 4, 5)


@pytest.mark.parametrize("make", [
    lambda: classify_ads([0, 1, 3], 6), lambda: ruzsa_ads(5),
    lambda: complement_ads(ruzsa_ads(5)),
], ids=["ads-634", "ruzsa5", "ruzsa5-complement"])
def test_scheme_of_an_ads_is_the_scheme_of_its_development(make):
    """Scheme(a) keeps develop(a) as its design, and a Development, the
    input perfbench/replay.py passes, gives the same scheme."""
    a = make()
    s, via = Scheme(a), Scheme(develop(a))
    assert s.design == via.design == develop(a)
    assert s.design.source is a
    for name in ("placement", "assignment", "rule", "message_count",
                 "params", "formula"):
        assert getattr(s, name) == getattr(via, name), name


def test_scheme_of_an_ads_raises_what_develop_raises():
    for a in (AlmostDifferenceSet(n=6, k=3, lam=2, mu=3, D=(0, 1, 3)),
              classify_ads([1, 2, 4], 7)):  # lam = k - 1; mu = 6 = n - 1
        with pytest.raises(DesignParameterError) as by_develop:
            develop(a)
        with pytest.raises(DesignParameterError) as by_scheme:
            Scheme(a)
        assert str(by_scheme.value) == str(by_develop.value)


def test_choose_T_values():
    assert choose_T(fano_scheme()) == 6
    assert choose_T(Scheme(projective_plane(3))) == 8
    assert choose_T(Scheme(projective_plane(5))) == 18
    assert choose_T(Scheme(classify_ads([0, 1, 3], 6))) == 2
    assert choose_T(Scheme(ruzsa_ads(3))) == 2
    assert choose_T(Scheme(ruzsa_ads(5))) == 4
    assert choose_T(fano_scheme(), scale=3) == 18


def choose_sd_T(t, lam, scale=1):
    """Reference sd width from (t, lam) alone, by brute force: the least
    multiple T of lcm(t, lam) with 2^(T/t) >= t diagonal points and
    2^(T/lam) >= t - 1 off-diagonal ones, times scale."""
    T = math.lcm(t, lam)
    while 2 ** (T // t) < t or 2 ** (T // lam) < t - 1:
        T += math.lcm(t, lam)
    return T * scale


@pytest.mark.parametrize("make_design", [
    lambda: require_symmetric_design(7, CYCLIC_FANO),
    lambda: projective_plane(3),
    lambda: projective_plane(5),
    lambda: require_symmetric_design(
        11, [tuple(sorted((d + r) % 11 for d in (1, 3, 4, 5, 9)))
             for r in range(11)]),
], ids=["fano", "plane3", "plane5", "paley11"])
@pytest.mark.parametrize("scale", [1, 3])
def test_choose_sd_T_is_choose_T(make_design, scale):
    """The width of the built scheme is the reference width from
    (t, lam) alone."""
    d = make_design()
    assert choose_sd_T(d.t, d.lam, scale) == \
        choose_T(Scheme(d), scale)


def test_choose_T_meets_the_field_bound():
    """Plane 13 needs GF(2^4) and GF(2^56); plane 31 needs GF(2^160)."""
    assert choose_T(Scheme(projective_plane(13))) == 56
    with pytest.raises(FieldError, match="got 160"):
        choose_T(Scheme(projective_plane(31)))
    with pytest.raises(SchemeParameterError):
        choose_T(Scheme(projective_plane(2)), scale=0)


def test_choose_T_refuses_a_large_plane_before_any_table():
    """Building a scheme and refusing its width reads no v x v table:
    plane 43 (1 893 points) needs GF(2^264), and choose_T says so within
    2 MiB of the built design."""
    d = projective_plane(43)
    tracemalloc.start()
    try:
        with pytest.raises(FieldError, match="got 264"):
            choose_T(Scheme(d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


def test_choose_T_meets_the_field_bound_before_the_coefficients():
    """A huge scale fails on the field degree without building 2 ** degree:
    at scale 10^8 the Fano width is 6 * 10^8 bits, a power of 2 of 25 MB
    per check."""
    tracemalloc.start()
    try:
        with pytest.raises(FieldError, match="got 200000000"):
            choose_T(fano_scheme(), scale=10 ** 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_choose_T_bounds_an_ads_scale():
    """No width passes MAX_DEGREE times the lcm of the segment counts, so
    (6,3,1,4), counts (1, 2), takes scale 64 at most.  Scale 10^8 is
    refused from the parameters alone, drawing no value."""
    s = Scheme(classify_ads([0, 1, 3], 6))
    tracemalloc.start()
    try:
        with pytest.raises(SchemeParameterError,
                           match="T=200000000 exceeds 128 bits"):
            choose_T(s, scale=10 ** 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert choose_T(s, scale=64) == 128


def test_choose_T_bounds_the_value_table():
    """Q*N values may not pass MAX_VALUES: ruzsa 23 (506 nodes, 256 036
    values) is refused from its parameters alone, while ruzsa 19
    (116 964 values), ruzsa 17 and the complement of ruzsa 7 at scale 64
    are still sized."""
    tracemalloc.start()
    try:
        s = Scheme(ruzsa_ads(23))
        with pytest.raises(SchemeParameterError,
                           match=r"Q\*N=256036 intermediate values exceed "
                                 r"131072"):
            choose_T(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert choose_T(Scheme(ruzsa_ads(19))) == 18
    assert choose_T(Scheme(ruzsa_ads(17))) == 16
    assert choose_T(Scheme(complement_ads(ruzsa_ads(7))),
                    scale=64) == 59520


def test_choose_T_refuses_a_large_ads_group_before_any_translate():
    """An ads scheme is sized from (n, k, lam) alone: the 10^5 translates
    of (0, 1, 3), about 20 MiB, are never built when choose_T refuses its
    10^10 values, and the refusal stays within 1 MiB."""
    tracemalloc.start()
    try:
        s = Scheme(classify_ads([0, 1, 3], 10 ** 5))
        with pytest.raises(SchemeParameterError,
                           match=r"Q\*N=10000000000 intermediate values"):
            choose_T(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert "placement" not in s.__dict__


def test_choose_T_value_bound_is_inclusive_and_last(monkeypatch):
    """A table of exactly MAX_VALUES values is accepted and one more is
    not, for either kind; a width refused on its field or its scale keeps
    that message whatever the table size."""
    ads, fano = Scheme(ruzsa_ads(5)), fano_scheme()
    monkeypatch.setattr(scheme, "MAX_VALUES", 400)
    assert choose_T(ads) == 4
    monkeypatch.setattr(scheme, "MAX_VALUES", 399)
    with pytest.raises(SchemeParameterError, match="Q\\*N=400"):
        choose_T(ads)
    with pytest.raises(SchemeParameterError, match="exceeds 256 bits"):
        choose_T(ads, scale=65)
    monkeypatch.setattr(scheme, "MAX_VALUES", 48)
    with pytest.raises(SchemeParameterError, match="Q\\*N=49"):
        choose_T(fano)
    monkeypatch.setattr(scheme, "MAX_VALUES", 0)
    with pytest.raises(FieldError, match="got 160"):
        choose_T(Scheme(projective_plane(31)))


def test_choose_T_bounds_the_value_bits():
    """Q*N*T bits may not pass MAX_VALUE_BITS: the complements of ruzsa 13
    and 17 at scale 64 (2.7 * 10^10 and 2.7 * 10^11 bits, 3.2 and 32 GiB)
    are refused from their parameters alone, drawing no value, while the
    complement of ruzsa 7 at scale 64 (1.05 * 10^8 bits), that of ruzsa 13
    at scale 1 (4.3 * 10^8), ruzsa 17 and plane 13 are still sized.  Plane
    17's 8.5 * 10^6 bits fit; it is refused on its field alone."""
    wide = [Scheme(complement_ads(ruzsa_ads(p))) for p in (13, 17)]
    tracemalloc.start()
    try:
        for s, bits in zip(wide, (27343540224, 273871011840)):
            with pytest.raises(SchemeParameterError,
                               match=rf"Q\*N\*T={bits} bits of intermediate "
                                     r"values exceed 536870912"):
                choose_T(s, scale=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert choose_T(Scheme(complement_ads(ruzsa_ads(7))),
                    scale=64) == 59520
    assert choose_T(wide[0]) == 17556  # 4.3 * 10^8 bits at scale 1
    assert choose_T(Scheme(ruzsa_ads(17))) == 16
    assert choose_T(Scheme(projective_plane(13))) == 56
    plane17 = Scheme(projective_plane(17))
    assert plane17.Q * plane17.N * 90 == 8482410 <= scheme.MAX_VALUE_BITS
    with pytest.raises(FieldError, match="got 90"):
        choose_T(plane17)


def test_choose_T_bits_bound_is_inclusive_and_last(monkeypatch):
    """A table of exactly MAX_VALUE_BITS bits is accepted and one bit more
    is not; a table refused on its value count keeps that message.  The
    bits bound is the last bound on the value table."""
    ads = Scheme(ruzsa_ads(5))  # 400 values of 4 bits
    monkeypatch.setattr(scheme, "MAX_VALUE_BITS", 1600)
    assert choose_T(ads) == 4
    monkeypatch.setattr(scheme, "MAX_VALUE_BITS", 1599)
    with pytest.raises(SchemeParameterError, match="Q\\*N\\*T=1600 bits"):
        choose_T(ads)
    monkeypatch.setattr(scheme, "MAX_VALUES", 399)
    with pytest.raises(SchemeParameterError, match="Q\\*N=400 "):
        choose_T(ads)


def test_message_count_from_the_parameters():
    """Scheme.message_count comes from the design's parameters alone, no
    placement: K C(k, 2) pair sums for an ads scheme, and with lam = 0
    also 2k plain segments per pair in no common block; K (t + 1) groups
    for sd."""
    counts = {
        "ruzsa11": (Scheme(ruzsa_ads(11)), 25850),
        "comp7": (Scheme(complement_ads(ruzsa_ads(7))), 26460),
        "comp13": (Scheme(complement_ads(ruzsa_ads(13))), 1606176),
        "plane13": (Scheme(projective_plane(13)), 2745),
    }
    for name, (s, count) in counts.items():
        assert s.message_count == count, name
        assert "placement" not in s.__dict__, name


def test_choose_T_bounds_the_message_count(monkeypatch):
    """A run of exactly MAX_MESSAGES messages is accepted and one more is
    not, for either kind, and the message bound is checked last: a table
    past its bits keeps that message.  The real bound still takes the
    complement of ruzsa 13 at scale 1, 1 606 176 messages."""
    ads, fano = Scheme(ruzsa_ads(5)), fano_scheme()  # 680, 28
    monkeypatch.setattr(scheme, "MAX_MESSAGES", 680)
    assert choose_T(ads) == 4
    monkeypatch.setattr(scheme, "MAX_MESSAGES", 679)
    with pytest.raises(SchemeParameterError,
                       match="680 shuffle messages exceed 679"):
        choose_T(ads)
    monkeypatch.setattr(scheme, "MAX_MESSAGES", 28)
    assert choose_T(fano) == 6
    monkeypatch.setattr(scheme, "MAX_MESSAGES", 27)
    with pytest.raises(SchemeParameterError,
                       match="28 shuffle messages exceed 27"):
        choose_T(fano)
    monkeypatch.setattr(scheme, "MAX_VALUE_BITS", 5)
    with pytest.raises(SchemeParameterError, match="Q\\*N\\*T=294 bits"):
        choose_T(fano)
    monkeypatch.undo()
    assert scheme.MAX_MESSAGES >= 1606176
    assert choose_T(Scheme(complement_ads(ruzsa_ads(13)))) == 17556


def test_picker_gives_a_tuple_at_every_size():
    """itemgetter with one index gives the item itself, with none it
    fails; picker gives a tuple for one position or none, as for
    several."""
    row = (10, 11, 12, 13)
    assert picker((3, 0, 2))(row) == (13, 10, 12)
    assert picker((2,))(row) == (12,)
    assert picker(())(row) == ()


def test_value_rows_read_by_pair():
    """A ValueRows reads rows[i][j] as (qs[i], ns[j]), q-major, for one
    row or one column too, and nothing else."""
    view = ValueRows((4,), (2, 7), ((40, 47),))
    assert list(view) == [(4, 2), (4, 7)] and len(view) == 2
    assert view == {(4, 2): 40, (4, 7): 47}
    column = ValueRows((1, 3), (5,), ((15,), (35,)))
    assert list(column.items()) == [((1, 5), 15), ((3, 5), 35)]
    assert list(column.values()) == [15, 35]
    assert ((3, 5), 35) in column.items() and 15 in column.values()
    for key in ((5, 1), (1, 4), (1,), (1, 5, 0), 1, None):
        assert key not in column
        with pytest.raises(KeyError):
            column[key]


def test_iv_table_values_view_its_rows():
    """IVTable.values reads the one table, rows[q][n], by (q, n), and
    cannot be written."""
    s = fano_scheme()
    ivs = generate_ivs(s, 5, 6)
    assert len(ivs.rows) == 7 and {len(row) for row in ivs.rows} == {7}
    assert len(ivs.values) == 49
    assert dict(ivs.values.items()) == {
        (q, n): ivs.rows[q][n] for q in range(7) for n in range(7)}
    assert (7, 0) not in ivs.values and (-1, 0) not in ivs.values
    with pytest.raises(TypeError):
        ivs.values[0, 0] = 1


def test_choose_T_rejects_bad_scale():
    with pytest.raises(SchemeParameterError):
        choose_T(fano_scheme(), scale=0)


def test_generate_ivs_deterministic():
    s = fano_scheme()
    a = generate_ivs(s, 42, 6)
    b = generate_ivs(s, 42, 6)
    assert a == b
    c = generate_ivs(s, 43, 6)
    assert a != c
    assert set(a.values) == {(q, n) for q in range(7) for n in range(7)}
    assert all(0 <= value < 64 for value in a.values.values())


def test_generate_ivs_long_width():
    """Widths past one hash digest still come out deterministic."""
    s = Scheme(classify_ads([0, 1], 6))
    a = generate_ivs(s, 7, 600)
    assert a == generate_ivs(s, 7, 600)
    assert any(value >= 1 << 512 for value in a.values.values())


def reference_value(seed, q, n, T):
    """Value (q, n) of the table, drawn digest by digest: the top T bits
    of the BLAKE2b digests, keyed by seed, of q, n and a counter, each an
    8-byte big-endian word."""
    key = seed.to_bytes(8, "big")
    stream = b"".join(
        hashlib.blake2b(q.to_bytes(8, "big") + n.to_bytes(8, "big")
                        + counter.to_bytes(8, "big"), key=key).digest()
        for counter in range(-(-T // 512)))
    return int.from_bytes(stream, "big") >> (8 * len(stream) - T)


@pytest.mark.parametrize("T", [2, 6, 510, 512, 514, 1024, 1026, 1540])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
def test_generate_ivs_matches_the_digest_stream(seed, T):
    """Every value equals its digest-by-digest reference, across one, two
    and four digests and at each digest boundary."""
    s = Scheme(classify_ads([0, 1], 6))
    assert generate_ivs(s, seed, T).values == {
        (q, n): reference_value(seed, q, n, T)
        for q in range(s.Q) for n in range(s.N)}


def test_generate_ivs_validates():
    s = fano_scheme()
    with pytest.raises(SchemeParameterError):
        generate_ivs(s, -1, 6)
    with pytest.raises(SchemeParameterError):
        generate_ivs(s, 2 ** 64, 6)
    with pytest.raises(SchemeParameterError):
        generate_ivs(s, 0, 5)   # not divisible by t
    with pytest.raises(SchemeParameterError):
        generate_ivs(s, 0, 3)   # field too small for 3 points
    for T in (0, 6.0, "6"):
        with pytest.raises(SchemeParameterError,
                           match="T must be a positive integer"):
            generate_ivs(s, 0, T)


def test_node_view_fano():
    s = fano_scheme()
    view = node_view(s, 0)
    assert view.needed == {(q, n) for q in (2, 4, 5, 6) for n in (2, 4, 5, 6)}


def test_node_view_ads():
    s = Scheme(classify_ads([0, 1, 3], 6))
    view = node_view(s, 0)
    assert view.needed == {(q, n) for q in (0, 1, 3) for n in (2, 4, 5)}
    with pytest.raises(SchemeParameterError):
        node_view(s, 6)


LACKING_SCHEMES = {
    "fano": fano_scheme,
    "plane3": lambda: Scheme(projective_plane(3)),
    "paley11": lambda: Scheme(require_symmetric_design(
        11, [tuple(sorted((d + r) % 11 for d in (1, 3, 4, 5, 9)))
             for r in range(11)])),
    "ads-634": lambda: Scheme(classify_ads([0, 1, 3], 6)),
    "ruzsa5": lambda: Scheme(ruzsa_ads(5)),
}


@pytest.mark.parametrize("name", sorted(LACKING_SCHEMES))
def test_lacking_is_the_complement_of_each_block(name):
    """Scheme.lacking[node] lists, ascending, the files the node's block
    leaves out, and the needed pairs are its outputs over exactly those."""
    s = LACKING_SCHEMES[name]()
    assert len(s.lacking) == s.K
    for node, block in enumerate(s.placement):
        assert s.lacking[node] == tuple(n for n in range(s.N)
                                        if n not in block)
        assert node_view(s, node).needed == {
            (q, n) for q in s.assignment[node] for n in s.lacking[node]}


def test_reduce_outputs_with_perfect_recovery():
    s = fano_scheme()
    ivs = generate_ivs(s, 5, 6)
    recovered = {
        node: {key: ivs.values[key] for key in node_view(s, node).needed}
        for node in range(7)}
    outputs = reduce_outputs(s, ivs, recovered)
    oracle = centralized_outputs(s, ivs)
    for node in range(7):
        assert set(outputs[node]) == set(s.assignment[node])
        for q, value in outputs[node].items():
            assert value == oracle[q]
    # the same values as rows, as the decoders return them
    as_rows = {node: ValueRows(s.assignment[node], s.lacking[node], tuple(
        tuple(ivs.rows[q][n] for n in s.lacking[node])
        for q in s.assignment[node])) for node in range(7)}
    assert as_rows == recovered
    assert reduce_outputs(s, ivs, as_rows) == outputs


def test_reduce_outputs_missing_value():
    s = fano_scheme()
    ivs = generate_ivs(s, 5, 6)
    recovered = {
        node: {key: ivs.values[key] for key in node_view(s, node).needed}
        for node in range(7)}
    del recovered[3][next(iter(node_view(s, 3).needed))]
    with pytest.raises(IncompleteRecoveryError) as info:
        reduce_outputs(s, ivs, recovered)
    assert info.value.node == 3


@pytest.mark.parametrize("make_scheme", [
    fano_scheme, lambda: Scheme(classify_ads([0, 1, 3], 6)),
], ids=["fano", "ads-634"])
def test_reduce_outputs_names_the_first_missing_value(make_scheme):
    """With several values missing, the witness is the first of them: the
    first output in assignment order, then the smallest file."""
    s = make_scheme()
    ivs = generate_ivs(s, 5, choose_T(s))
    for node in range(s.K):
        first_q, second_q = s.assignment[node][:2]
        lacking = sorted(set(range(s.N)) - set(s.placement[node]))
        kept = {(first_q, n): ivs.values[(first_q, n)] for n in lacking[:-1]}
        for got, witness in (({}, (first_q, lacking[0])),
                             (kept, (first_q, lacking[-1])),
                             ({**kept, (first_q, lacking[-1]): 0},
                              (second_q, lacking[0]))):
            with pytest.raises(IncompleteRecoveryError) as info:
                reduce_outputs(s, ivs, {node: got})
            assert (info.value.node, info.value.q, info.value.n) == \
                (node,) + witness


def test_scheme_json():
    s = fano_scheme()
    doc = json.loads(scheme_to_json(s))
    assert doc["kind"] == "sd"
    assert doc["params"] == {"v": 7, "t": 3, "lam": 1}
    assert doc["placement"][0] == [0, 1, 3]
    a = Scheme(classify_ads([0, 1], 6))
    doc = json.loads(scheme_to_json(a))
    assert doc["params"] == {"n": 6, "k": 2, "lam": 0, "mu": 3, "D": [0, 1]}
