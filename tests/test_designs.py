import contextlib
import io
import json
import random
import tracemalloc
from typing import Dict, Sequence, Tuple, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcsim.cli import EX_VERIFY, main
from cdcsim.designs import (MAX_DIFFERENCES, MAX_PLANE_ORDER, AdsReport,
                            AlmostDifferenceSet, DesignParameterError,
                            DesignVerificationError, DesignViolation,
                            SymmetricDesign, ads_from_doc, classify_ads,
                            complement_ads, develop,
                            export_ads, export_design, import_design,
                            projective_plane, ruzsa_ads,
                            smallest_primitive_root, verify_symmetric_design)
from cdcsim.scheme import Scheme

FANO_BLOCKS = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
               (2, 3, 6), (2, 4, 5)]


def reference_verify(
        v: int, blocks: Sequence[Sequence[int]]
) -> Union[SymmetricDesign, DesignViolation]:
    """The design verifier as a pair dictionary, a replication counter and
    a set intersection per block pair, kept as the reference."""
    normalized = [tuple(sorted(b)) for b in blocks]
    if v < 2:
        return DesignViolation("point-count", (v,), "need at least 2 points")
    for b in normalized:
        if len(set(b)) != len(b):
            return DesignViolation("block-members", b, "repeated point in block")
        if b and (b[0] < 0 or b[-1] >= v):
            return DesignViolation("block-members", b, f"point outside [0, {v})")
    if len(normalized) != v:
        return DesignViolation("block-count", (len(normalized), v),
                               f"{len(normalized)} blocks for {v} points")
    sizes = {len(b) for b in normalized}
    if len(sizes) != 1:
        return DesignViolation("block-size", tuple(sorted(sizes)),
                               "blocks have unequal sizes")
    t = sizes.pop()
    if t < 2:
        return DesignViolation("block-size", (t,), "blocks need at least 2 points")

    pair_count: Dict[Tuple[int, int], int] = {}
    for b in normalized:
        for i in range(len(b)):
            for j in range(i + 1, len(b)):
                pair = (b[i], b[j])
                pair_count[pair] = pair_count.get(pair, 0) + 1
    lam = pair_count.get((0, 1), 0) if v >= 2 else 0
    for x in range(v):
        for y in range(x + 1, v):
            count = pair_count.get((x, y), 0)
            if count != lam:
                return DesignViolation(
                    "pair-multiplicity", (x, y, count),
                    f"pair ({x},{y}) lies in {count} blocks, expected {lam}")

    replication = [0] * v
    for b in normalized:
        for x in b:
            replication[x] += 1
    for x in range(v):
        if replication[x] != t:
            return DesignViolation(
                "replication", (x, replication[x]),
                f"point {x} lies in {replication[x]} blocks, expected {t}")

    for i in range(v):
        si = set(normalized[i])
        for j in range(i + 1, v):
            meet = len(si.intersection(normalized[j]))
            if meet != lam:
                return DesignViolation(
                    "block-intersection", (i, j, meet),
                    f"blocks {i} and {j} meet in {meet} points, expected {lam}")

    if lam * (v - 1) != t * (t - 1):
        return DesignViolation(
            "counting-identity", (v, t, lam),
            f"lam*(v-1) = {lam * (v - 1)} but t*(t-1) = {t * (t - 1)}")
    return SymmetricDesign(v=v, t=t, lam=lam, blocks=tuple(sorted(normalized)))


def diff_function(D: Sequence[int], n: int, x: int) -> int:
    """|D intersect (D + x)| in Z_n, for D distinct elements of [0, n)."""
    if n < 1:
        raise DesignParameterError(f"group order must be positive, got {n}")
    if not 0 <= x < n:
        raise DesignParameterError(f"shift {x} outside [0, {n})")
    dset = set(D)
    return sum(1 for d in D if (d + x) % n in dset)


def reference_classify(D: Sequence[int],
                       n: int) -> Union[AlmostDifferenceSet, AdsReport]:
    """classify_ads as one diff_function call per nonzero shift, kept as
    the reference."""
    if n < 2:
        raise DesignParameterError(f"group order must be at least 2, got {n}")
    if len(D) == 0:
        raise DesignParameterError("D must be nonempty")
    ordered = tuple(sorted(D))
    outside = [d for d in ordered if not 0 <= d < n]
    if outside:
        raise DesignVerificationError(
            f"element {outside[0]} of D outside [0, {n})")
    if len(set(ordered)) != len(ordered):
        raise DesignVerificationError("repeated element in D")
    counts: Dict[int, int] = {}
    for x in range(1, n):
        value = diff_function(ordered, n, x)
        counts[value] = counts.get(value, 0) + 1
    support = sorted(counts)
    k = len(ordered)
    if len(support) == 1:
        return AlmostDifferenceSet(n=n, k=k, lam=support[0], mu=n - 1,
                                   D=ordered)
    if len(support) == 2 and support[1] == support[0] + 1:
        lam = support[0]
        return AlmostDifferenceSet(n=n, k=k, lam=lam, mu=counts[lam],
                                   D=ordered)
    return AdsReport(
        n=n, D=ordered, histogram=tuple(sorted(counts.items())),
        message=f"difference function takes values {support}, "
                f"not two adjacent ones")


def reference_plane_blocks(b: int) -> Tuple[Tuple[int, ...], ...]:
    """The plane's blocks by testing every point against every line, v^2
    dot products, kept as the reference."""
    reps = [(x0, x1, x2)
            for x0 in range(b) for x1 in range(b) for x2 in range(b)
            if next((c for c in (x0, x1, x2) if c != 0), None) == 1]
    blocks = [tuple(i for i, (x0, x1, x2) in enumerate(reps)
                    if (a0 * x0 + a1 * x1 + a2 * x2) % b == 0)
              for a0, a1, a2 in reps]
    return tuple(sorted(blocks))


@pytest.mark.parametrize("b,v,t", [(2, 7, 3), (3, 13, 4), (5, 31, 6)])
def test_projective_planes(b, v, t):
    d = projective_plane(b)
    assert (d.v, d.t, d.lam) == (v, t, 1)
    assert len(d.blocks) == v
    assert all(len(block) == t for block in d.blocks)


@pytest.mark.parametrize("b", [2, 3, 5, 7, 11, 13, 17])
def test_plane_lines_match_dot_products(b):
    """Listing each line's points directly gives the blocks that testing
    every point against every line gives."""
    assert projective_plane(b).blocks == reference_plane_blocks(b)


def test_plane_needs_prime_order():
    with pytest.raises(DesignParameterError):
        projective_plane(4)
    with pytest.raises(DesignParameterError):
        projective_plane(1)


def test_plane_order_is_capped_before_anything_is_built():
    """A prime past MAX_PLANE_ORDER is refused before the b^2 points are
    listed: plane 10007 would hold 10^8 points."""
    assert MAX_PLANE_ORDER == 101
    tracemalloc.start()
    try:
        with pytest.raises(DesignParameterError, match="up to order 101"):
            projective_plane(10007)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_verify_fano():
    d = verify_symmetric_design(7, FANO_BLOCKS)
    assert isinstance(d, SymmetricDesign)
    assert (d.v, d.t, d.lam) == (7, 3, 1)
    assert d.blocks == tuple(FANO_BLOCKS)


def test_verify_canonicalizes_order():
    shuffled = [tuple(reversed(b)) for b in reversed(FANO_BLOCKS)]
    d = verify_symmetric_design(7, shuffled)
    assert isinstance(d, SymmetricDesign)
    assert d.blocks == tuple(FANO_BLOCKS)


def test_perturbed_fano_reports_bad_pair():
    """One changed element must surface as a wrong pair multiplicity."""
    blocks = [list(b) for b in FANO_BLOCKS]
    blocks[-1][-1] = 6  # (2,4,5) -> (2,4,6)
    report = verify_symmetric_design(7, blocks)
    assert isinstance(report, DesignViolation)
    assert report.invariant == "pair-multiplicity"
    assert "expected 1" in report.message


def test_wrong_block_count():
    report = verify_symmetric_design(7, FANO_BLOCKS[:6])
    assert isinstance(report, DesignViolation)
    assert report.invariant == "block-count"


@pytest.mark.parametrize("blocks,witness,message", [
    ([(0, 1), (0, 2), (1,)], (1, 2), "blocks have unequal sizes"),
    ([(0,), (1,), (2,)], (1,), "blocks need at least 2 points"),
], ids=["unequal", "one-point"])
def test_wrong_block_size(blocks, witness, message):
    """Three blocks on three points, of unequal sizes or of one point
    each, fail the block-size check as the reference does."""
    report = verify_symmetric_design(3, blocks)
    assert report == DesignViolation("block-size", witness, message)
    assert report == reference_verify(3, blocks)


def test_out_of_range_point():
    report = verify_symmetric_design(7, FANO_BLOCKS[:6] + [(2, 4, 7)])
    assert isinstance(report, DesignViolation)
    assert report.invariant == "block-members"


def test_diff_function_examples():
    assert diff_function([0, 1, 3], 6, 3) == 2
    assert diff_function([0, 1, 3], 6, 1) == 1
    assert diff_function([0, 1, 3], 6, 0) == 3
    with pytest.raises(DesignParameterError):
        diff_function([0, 1, 3], 6, 6)


def test_classify_known_ads():
    a = classify_ads([0, 1, 3], 6)
    assert isinstance(a, AlmostDifferenceSet)
    assert (a.n, a.k, a.lam, a.mu) == (6, 3, 1, 4)
    b = classify_ads([0, 1], 6)
    assert (b.n, b.k, b.lam, b.mu) == (6, 2, 0, 3)
    c = classify_ads([0, 1, 2, 5], 8)
    assert (c.n, c.k, c.lam, c.mu) == (8, 4, 1, 2)


def test_classify_rejects_non_ads():
    report = classify_ads([0, 1, 2, 3], 8)
    assert isinstance(report, AdsReport)
    assert report.histogram == ((0, 1), (1, 2), (2, 2), (3, 2))
    assert "not two adjacent" in str(report)


def test_classify_perfect_difference_set_degenerate():
    """A constant difference function classifies with mu = n-1."""
    a = classify_ads([1, 2, 4], 7)
    assert isinstance(a, AlmostDifferenceSet)
    assert (a.n, a.k, a.lam, a.mu) == (7, 3, 1, 6)


def test_smallest_primitive_roots():
    assert [smallest_primitive_root(p) for p in (3, 5, 7, 11, 13)] == \
        [2, 2, 3, 2, 2]
    assert smallest_primitive_root(41) == 6
    # against the definition: g has order p-1 and no smaller g does
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        order = {g: next(e for e in range(1, p) if pow(g, e, p) == 1)
                 for g in range(2, p)}
        assert smallest_primitive_root(p) == \
            min(g for g in order if order[g] == p - 1)
    with pytest.raises(DesignParameterError):
        smallest_primitive_root(15)


@pytest.mark.parametrize("p,expected_D", [
    (3, (4, 5)),
    (5, (3, 14, 16, 17)),
    (7, (2, 4, 5, 27, 31, 36)),
])
def test_ruzsa_frozen_sets(p, expected_D):
    a = ruzsa_ads(p)
    assert a.D == expected_D
    assert (a.n, a.k, a.lam, a.mu) == (p * p - p, p - 1, 0, 2 * p - 3)


def test_ruzsa_zero_diff_structure():
    """diff = 0 exactly at the nonzero multiples of p and of p-1."""
    for p in (5, 7, 11):
        a = ruzsa_ads(p)
        n = a.n
        expected = {x for x in range(1, n) if x % p == 0 or x % (p - 1) == 0}
        zero = {x for x in range(1, n) if diff_function(a.D, n, x) == 0}
        assert zero == expected
        assert len(zero) == 2 * p - 3


def test_ruzsa_needs_odd_prime():
    with pytest.raises(DesignParameterError):
        ruzsa_ads(4)
    with pytest.raises(DesignParameterError):
        ruzsa_ads(2)


def test_complement_examples():
    b = classify_ads([0, 1], 6)
    c = complement_ads(b)
    assert (c.n, c.k, c.lam, c.mu) == (6, 4, 2, 3)
    assert c.D == (2, 3, 4, 5)
    a = classify_ads([0, 1, 3], 6)
    ca = complement_ads(a)
    assert (ca.n, ca.k, ca.lam, ca.mu) == (6, 3, 1, 4)
    assert ca.D == (2, 4, 5)
    assert complement_ads(ca).D == a.D


def test_develop_golden_blocks():
    blocks = Scheme(develop(classify_ads([0, 1, 3], 6))).placement
    assert blocks == ((0, 1, 3), (1, 2, 4), (2, 3, 5),
                      (0, 3, 4), (1, 4, 5), (0, 2, 5))


def test_develop_census():
    for D, n in ([(0, 1, 3), 6], [(0, 1), 6], [(3, 14, 16, 17), 20]):
        a = classify_ads(D, n)
        blocks = Scheme(develop(a)).placement
        assert len(blocks) == n
        for x in range(n):
            assert sum(x in block for block in blocks) == a.k
        lam_pairs = 0
        for x in range(n):
            for y in range(x + 1, n):
                count = sum(x in block and y in block for block in blocks)
                assert count in (a.lam, a.lam + 1)
                lam_pairs += count == a.lam
        assert 2 * lam_pairs == n * a.mu


@pytest.mark.parametrize("make", [
    lambda: ruzsa_ads(5),
    lambda: ruzsa_ads(7),
    lambda: complement_ads(ruzsa_ads(5)),
    lambda: complement_ads(ruzsa_ads(7)),
    lambda: classify_ads([0, 1, 3], 6),
], ids=["ruzsa5", "ruzsa7", "comp5", "comp7", "ads6"])
def test_develop_census_matches_brute_force(make):
    """The pair census develop relies on, read from the difference
    function, is the one that counting the blocks through each pair gives:
    x < y lie together in diff_D(y - x) blocks."""
    a = make()
    sets = [set(block) for block in Scheme(develop(a)).placement]
    for x in range(a.n):
        for y in range(x + 1, a.n):
            assert sum(x in block and y in block for block in sets) == \
                diff_function(a.D, a.n, (y - x) % a.n), (x, y)


def test_ruzsa_refuses_a_prime_past_the_difference_cap():
    """Ruzsa 1021 counts 1020 * 1019 differences, within MAX_DIFFERENCES;
    ruzsa 1031 (1030 * 1029) is refused before its D is built."""
    assert 1020 * 1019 <= MAX_DIFFERENCES < 1030 * 1029
    with pytest.raises(DesignParameterError, match=r"p=1031 gives k\(k-1\)"):
        ruzsa_ads(1031)


def test_develop_guards():
    with pytest.raises(DesignParameterError):
        develop(AlmostDifferenceSet(n=6, k=3, lam=2, mu=3, D=(0, 1, 3)))
    singer = classify_ads([1, 2, 4], 7)
    with pytest.raises(DesignParameterError):
        develop(singer)
    with pytest.raises(AssertionError,  # D's true mu is 4
                       match=r"mu=4, .* not as \(6, 3, 1, 3\)"):
        develop(AlmostDifferenceSet(n=6, k=3, lam=1, mu=3, D=(0, 1, 3)))


def test_develop_in_a_large_group_stays_small():
    """develop checks a development through its difference histogram, so
    n = 10 000 costs the n blocks alone, built as the scheme's placement.
    A pair census from packed Gram columns peaked at 53.7 MiB on this
    input."""
    a = classify_ads([0, 1, 3], 10000)
    tracemalloc.start()
    try:
        blocks = Scheme(develop(a)).placement
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) == 10000
    assert peak < 5 * 2 ** 20


def test_design_round_trip_byte_stable():
    d = projective_plane(3)
    text = export_design(d)
    assert import_design(text) == d
    assert export_design(import_design(text)) == text
    assert text.endswith("\n") and "\n" not in text[:-1]


def test_ads_round_trip():
    a = ruzsa_ads(5)
    text = export_ads(a)
    assert ads_from_doc(json.loads(text)) == a
    assert export_ads(ads_from_doc(json.loads(text))) == text


def test_import_rejects_bad_content():
    with pytest.raises(DesignVerificationError):
        import_design('{"v":7,"blocks":[[0,1,2]]}')
    with pytest.raises(DesignVerificationError):
        ads_from_doc(json.loads('{"n":8,"D":[0,1,2,3]}'))
    with pytest.raises(DesignVerificationError):
        import_design('{"v":7}')
    for doc in ({"D": [0, 1, 3]}, {"n": 6}, [6, [0, 1, 3]]):
        with pytest.raises(DesignVerificationError,
                           match="ADS document needs keys 'n' and 'D'"):
            ads_from_doc(doc)


@st.composite
def _random_block_lists(draw):
    v = draw(st.integers(0, 9))
    points = st.integers(-1, v + 1)
    blocks = draw(st.lists(st.lists(points, max_size=v + 1), max_size=v + 1))
    return v, blocks


_PLANES = {b: projective_plane(b) for b in (2, 3, 5)}


@st.composite
def _edited_planes(draw):
    """A plane of order 2, 3 or 5 after 0-2 random edits."""
    d = _PLANES[draw(st.sampled_from(sorted(_PLANES)))]
    blocks = [list(b) for b in d.blocks]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["point", "drop", "duplicate", "reorder"]))
        i = draw(st.integers(0, len(blocks) - 1))
        if edit == "point":
            block = blocks[i]
            block[draw(st.integers(0, len(block) - 1))] = \
                draw(st.integers(-1, d.v))
        elif edit == "drop":
            del blocks[i]
        elif edit == "duplicate":
            blocks.insert(i, list(blocks[i]))
        else:
            blocks = draw(st.permutations(blocks))
    return d.v, blocks


@settings(max_examples=300, deadline=None)
@given(_random_block_lists() | _edited_planes())
def test_verify_matches_reference(case):
    """Same design, or the same first violation with the same witness and
    message, as the pair-dictionary reference."""
    v, blocks = case
    assert verify_symmetric_design(v, blocks) == reference_verify(v, blocks)


def _plane17_complement():
    """The complement of the plane of order 17, a (307, 289, 272) design:
    rows of 289 need two-byte Gram digits."""
    d = projective_plane(17)
    return d.v, [[x for x in range(d.v) if x not in held]
                 for held in map(set, d.blocks)]


def test_verify_multi_byte_digits():
    v, blocks = _plane17_complement()
    d = verify_symmetric_design(v, blocks)
    assert isinstance(d, SymmetricDesign)
    assert (d.v, d.t, d.lam) == (307, 289, 272) and d.t > 255
    assert d.blocks == tuple(sorted(map(tuple, blocks)))


@pytest.mark.parametrize("edit", ["point", "duplicate"])
def test_verify_multi_byte_digits_matches_reference(edit):
    """One changed point, or one block repeated in place of another, gives
    the reference's violation at two-byte digits too."""
    v, blocks = _plane17_complement()
    if edit == "point":
        blocks[0][-1] = min(set(range(v)) - set(blocks[0]))
    else:
        blocks[-1] = list(blocks[0])
    report = verify_symmetric_design(v, blocks)
    assert isinstance(report, DesignViolation)
    assert report == reference_verify(v, blocks)


def test_verify_packs_columns_as_rows_reach_them():
    """A ring of blocks {i, i+1 mod v} fails the pair check at row 0, so
    only the two blocks through point 0 are packed.  Packing every block
    first peaked at 19.3 MiB here."""
    v = 6000
    blocks = [(i, (i + 1) % v) for i in range(v)]
    tracemalloc.start()
    try:
        report = verify_symmetric_design(v, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == DesignViolation(
        "pair-multiplicity", (0, 2, 0),
        "pair (0,2) lies in 0 blocks, expected 1")
    assert peak < 4 * 2 ** 20, peak


_MULTI_WORD_PLANES = {b: projective_plane(b) for b in (7, 11, 13)}


@pytest.mark.parametrize("b", sorted(_MULTI_WORD_PLANES))
def test_verify_multi_word_planes_match_reference(b):
    """Planes of 57, 133 and 183 points, whose point masks span several
    machine words, verify as the reference verifies them."""
    d = _MULTI_WORD_PLANES[b]
    assert verify_symmetric_design(d.v, d.blocks) == d
    assert reference_verify(d.v, d.blocks) == d


def _edited_plane(b: int, edit: str, seed: int) -> Tuple[int, list]:
    """Plane b with one seeded edit: a point of one block changed to one
    it lacks, one block repeated in place of another, or two points
    swapped between two blocks, each leaving a point it lacks."""
    rng = random.Random(seed)
    d = _MULTI_WORD_PLANES[b]
    blocks = [list(block) for block in d.blocks]
    i, k = rng.sample(range(d.v), 2)
    if edit == "point":
        block = blocks[i]
        block[rng.randrange(len(block))] = rng.choice(
            sorted(set(range(d.v)) - set(block)))
    elif edit == "duplicate":
        blocks[k] = list(blocks[i])
    else:
        x = rng.choice(sorted(set(blocks[i]) - set(blocks[k])))
        y = rng.choice(sorted(set(blocks[k]) - set(blocks[i])))
        blocks[i][blocks[i].index(x)] = y
        blocks[k][blocks[k].index(y)] = x
    return d.v, blocks


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("edit", ["point", "duplicate", "swap"])
@pytest.mark.parametrize("b", [7, 11])
def test_verify_edited_multi_word_planes_match_reference(b, edit, seed):
    """Each edit breaks pair multiplicity at lam = 1, and the mask check
    reports the reference's first violation on masks of several words."""
    v, blocks = _edited_plane(b, edit, seed)
    report = verify_symmetric_design(v, blocks)
    assert isinstance(report, DesignViolation)
    assert report.message.endswith("expected 1")
    assert report == reference_verify(v, blocks)


_VALID_DOCUMENTS = {
    "fano": (7, FANO_BLOCKS),
    "plane3": (13, projective_plane(3).blocks),
    "paley11": (11, [tuple(sorted((x * x + r) % 11 for x in range(1, 6)))
                     for r in range(11)]),
}


@st.composite
def _tampered_documents(draw):
    """A valid Fano, plane 3 or Paley (11,5,2) document with one point of
    one block moved, one block replaced by a copy of another, or one block
    dropped."""
    name = draw(st.sampled_from(sorted(_VALID_DOCUMENTS)))
    v, valid = _VALID_DOCUMENTS[name]
    blocks = [list(b) for b in valid]
    i = draw(st.integers(0, v - 1))
    edit = draw(st.sampled_from(["move", "copy", "drop"]))
    if edit == "move":
        position = draw(st.integers(0, len(blocks[i]) - 1))
        blocks[i][position] = draw(st.integers(0, v - 1).filter(
            lambda x: x != blocks[i][position]))
    elif edit == "copy":
        blocks[i] = list(blocks[draw(st.integers(0, v - 1).filter(
            lambda j: j != i))])
    else:
        del blocks[i]
    return v, blocks


@settings(max_examples=100, deadline=None)
@given(_tampered_documents())
def test_verify_tampered_documents_end_to_end(tmp_path_factory, case):
    """design --verify of a tampered document exits 2, prints nothing, and
    reports on stderr the reference verifier's first violation."""
    v, blocks = case
    expected = reference_verify(v, blocks)
    assert isinstance(expected, DesignViolation)
    path = tmp_path_factory.mktemp("doc") / "design.json"
    path.write_text(json.dumps({"v": v, "blocks": blocks}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["design", "--verify", str(path)])
    assert code == EX_VERIFY
    assert out.getvalue() == ""
    assert err.getvalue() == f"verification failed: {expected}\n"


@st.composite
def _subsets_of_zn(draw):
    n = draw(st.integers(2, 60))
    return draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True)), n


@settings(max_examples=300, deadline=None)
@given(_subsets_of_zn())
def test_classify_matches_per_shift_reference(case):
    """The histogram from pairwise differences classifies every subset as
    one diff_function call per shift does."""
    D, n = case
    assert classify_ads(D, n) == reference_classify(D, n)
