import pytest

from cdcsim.designs import (AdsReport, AlmostDifferenceSet,
                            DesignParameterError, DesignVerificationError,
                            DesignViolation, SymmetricDesign, classify_ads,
                            complement_ads, develop, diff_function, export_ads,
                            export_design, import_ads, import_design,
                            projective_plane, ruzsa_ads,
                            smallest_primitive_root, verify_symmetric_design)

FANO_BLOCKS = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
               (2, 3, 6), (2, 4, 5)]


@pytest.mark.parametrize("b,v,t", [(2, 7, 3), (3, 13, 4), (5, 31, 6)])
def test_projective_planes(b, v, t):
    d = projective_plane(b)
    assert (d.v, d.t, d.lam) == (v, t, 1)
    assert len(d.blocks) == v
    assert all(len(block) == t for block in d.blocks)


def test_plane_needs_prime_order():
    with pytest.raises(DesignParameterError):
        projective_plane(4)
    with pytest.raises(DesignParameterError):
        projective_plane(1)


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
    dev = develop(classify_ads([0, 1, 3], 6))
    assert dev.blocks == ((0, 1, 3), (1, 2, 4), (2, 3, 5),
                          (0, 3, 4), (1, 4, 5), (0, 2, 5))


def test_develop_census():
    for D, n in ([(0, 1, 3), 6], [(0, 1), 6], [(3, 14, 16, 17), 20]):
        a = classify_ads(D, n)
        dev = develop(a)
        assert len(dev.blocks) == n
        for x in range(n):
            assert sum(x in block for block in dev.blocks) == a.k
        lam_pairs = 0
        for x in range(n):
            for y in range(x + 1, n):
                count = sum(x in block and y in block for block in dev.blocks)
                assert count in (a.lam, a.lam + 1)
                lam_pairs += count == a.lam
        assert 2 * lam_pairs == n * a.mu


def test_develop_guards():
    with pytest.raises(DesignParameterError):
        develop(AlmostDifferenceSet(n=6, k=3, lam=2, mu=3, D=(0, 1, 3)))
    singer = classify_ads([1, 2, 4], 7)
    with pytest.raises(DesignParameterError):
        develop(singer)


def test_design_round_trip_byte_stable():
    d = projective_plane(3)
    text = export_design(d)
    assert import_design(text) == d
    assert export_design(import_design(text)) == text
    assert text.endswith("\n") and "\n" not in text[:-1]


def test_ads_round_trip():
    a = ruzsa_ads(5)
    text = export_ads(a)
    assert import_ads(text) == a
    assert export_ads(import_ads(text)) == text


def test_import_rejects_bad_content():
    with pytest.raises(DesignVerificationError):
        import_design('{"v":7,"blocks":[[0,1,2]]}')
    with pytest.raises(DesignVerificationError):
        import_ads('{"n":8,"D":[0,1,2,3]}')
    with pytest.raises(DesignParameterError):
        import_design('{"v":7}')
