from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcsim.analysis import (AnalysisDomainError, CSV_HEADER,
                             InequalityCheck, ads_load,
                             jiang_load, li_load, li_lower_bound_inequality,
                             li_lower_bound_steps, li_sandwich, ours_sd_load,
                             sweep, sweep_csv)
from cdcsim.gf import is_prime


def is_prime_power(x: int) -> bool:
    """True when x = f^e for a prime f and e >= 1."""
    if x < 2:
        return False
    f = 2
    while f * f <= x:
        if x % f == 0:
            while x % f == 0:
                x //= f
            return x == 1
        f += 1
    return True


def symmetric_design_families(b: int):
    """Admissible (label, v, t, lam) symmetric-design families at order b.

    The parameter sets the loads are compared over (acceptance criterion 6
    imports this).  Three families need b to be a prime power; the fourth
    needs both b-1 and b^2-b+1 to be prime powers.  Each returned triple
    satisfies the counting identity lam*(v-1) = t*(t-1).
    """
    if b < 2:
        raise AnalysisDomainError(f"b must be at least 2, got {b}")
    out = []
    if is_prime_power(b):
        out.append(("b2+b+1", b * b + b + 1, b + 1, 1))
        out.append(("b3+b2+b+1", b ** 3 + b * b + b + 1, b * b + b + 1, b + 1))
        out.append(("b3+2b2", b ** 3 + 2 * b * b, b * b + b, b))
    if is_prime_power(b - 1) and is_prime_power(b * b - b + 1):
        out.append(("b3+b+1", b ** 3 + b + 1, b * b + 1, b))
    for _, v, t, lam in out:
        assert lam * (v - 1) == t * (t - 1), (b, v, t, lam)
    return out


def li_reference(K, r, s):
    """Direct transcription of the load sum, kept separate on purpose."""
    total = Fraction(0)
    for ell in range(max(r + 1, s), min(r + s, K) + 1):
        term = Fraction(comb(K - r, K - ell) * comb(r, ell - s), comb(K, s))
        total += term * Fraction(ell - r, ell - 1)
    return total


def reference_inequality(p):
    """The master inequality with one binomial per term, kept separate on
    purpose."""
    m = (p - 1) ** 2
    lhs = sum(ell * comb(m, ell) * comb(p - 1, ell) for ell in range(p))
    rhs = (p - 3) * comb(p * p - p, p - 1)
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=lhs > rhs)


def reference_steps(p):
    """The step chain with one binomial per deficit term and each ratio
    taken of two deficit terms, kept separate on purpose: dominance, tail
    bound, ratios as Fractions and the two ratio verdicts."""
    m = (p - 1) ** 2
    d = [(p - 3 - ell) * comb(p - 1, p - 1 - ell) * comb(m, ell)
         for ell in range(p - 3)]
    dominance = InequalityCheck(
        lhs=comb(m, p - 1), rhs=comb(p - 1, 3) * comb(m, p - 4),
        holds=comb(m, p - 1) > comb(p - 1, 3) * comb(m, p - 4))
    tail_lhs = 2 * comb(m, p - 4) * comb(p - 1, 3)
    tail = InequalityCheck(lhs=tail_lhs, rhs=sum(d), holds=tail_lhs > sum(d))
    ratios = tuple(Fraction(d[ell], d[ell + 1]) for ell in range(p - 4))
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    below_half = not ratios or ratios[-1] < Fraction(1, 2)
    return dominance, tail, ratios, increasing, below_half


def test_appendix_matches_reference():
    """The stepped terms give every lhs, rhs, verdict and ratio that one
    binomial per term gives."""
    for p in range(5, 151):
        assert li_lower_bound_inequality(p) == reference_inequality(p), p
        steps = li_lower_bound_steps(p)
        ratios = tuple(Fraction(a, b) for a, b in steps.ratio_pairs)
        assert (steps.dominance, steps.tail_bound, ratios,
                steps.ratios_increasing, steps.last_ratio_below_half) == \
            reference_steps(p), p


def test_li_load_matches_reference_at_scale():
    """The stepped binomial products hold far past the K <= 80 the
    property test draws: at the appendix point K = p^2 - p, r = s = p - 1,
    and on the planes the plane sweep compares against."""
    for p in range(5, 61):
        K, r = p * p - p, p - 1
        assert li_load(K, r, r) == li_reference(K, r, r), p
    for b in filter(is_prime, range(2, 51)):
        v, t = b * b + b + 1, b + 1
        assert li_load(v, t, v - t) == li_reference(v, t, v - t), b


def test_li_load_small_cases():
    assert li_load(2, 1, 1) == Fraction(1, 2)
    assert li_load(7, 3, 4) == Fraction(13, 25)
    for K in range(1, 13):
        for r in range(1, K + 1):
            for s in range(1, K + 1):
                assert li_load(K, r, s) == li_reference(K, r, s)


def test_li_load_full_replication_is_free():
    for K in range(1, 13):
        for s in range(1, K + 1):
            assert li_load(K, K, s) == 0


def test_li_load_domain():
    with pytest.raises(AnalysisDomainError):
        li_load(5, 0, 1)
    with pytest.raises(AnalysisDomainError):
        li_load(5, 1, 6)


def li_domain_error(K, r, s):
    """The message li_load raises for (K, r, s) outside its domain, or
    None inside it."""
    if K < 1:
        return f"K must be positive, got {K}"
    if not 1 <= r <= K or not 1 <= s <= K:
        return f"need 1 <= r, s <= K, got r={r}, s={s}, K={K}"
    return None


@st.composite
def _li_arguments(draw):
    K = draw(st.integers(-1, 80))
    return K, draw(st.integers(-1, K + 1)), draw(st.integers(-1, K + 1))


@settings(max_examples=500, deadline=None)
@given(_li_arguments())
def test_li_load_matches_term_by_term_sum(args):
    """One common denominator gives the term-by-term Fraction sum, and the
    same domain errors."""
    error = li_domain_error(*args)
    if error is None:
        assert li_load(*args) == li_reference(*args)
    else:
        with pytest.raises(AnalysisDomainError) as raised:
            li_load(*args)
        assert str(raised.value) == error


def test_sd_load_formulas():
    assert ours_sd_load(7, 3) == Fraction(11, 21)
    assert ours_sd_load(13, 4) == Fraction(35, 52)
    assert jiang_load(7, 3) == Fraction(2, 3)
    assert jiang_load(13, 4) == Fraction(3, 4)
    with pytest.raises(AnalysisDomainError):
        ours_sd_load(1, 1)


@pytest.mark.parametrize("call,message", [
    (lambda: ours_sd_load(1, 1), "v must be at least 2, got 1"),
    (lambda: ours_sd_load(7, 0), "need 1 <= t <= v, got t=0"),
    (lambda: ours_sd_load(7, 8), "need 1 <= t <= v, got t=8"),
    (lambda: jiang_load(1, 1), "v must be at least 2, got 1"),
    (lambda: jiang_load(7, 0), "need 1 <= t <= v, got t=0"),
    (lambda: jiang_load(7, 8), "need 1 <= t <= v, got t=8"),
    (lambda: li_lower_bound_steps(4), "defined for p >= 5, got 4"),
    (lambda: li_sandwich(4), "defined for p >= 5, got 4"),
    (lambda: sweep("plane", 5, 4), "empty range [5, 4]"),
    (lambda: sweep("ruzsa", 3, 2), "empty range [3, 2]"),
    (lambda: sweep("plane", 2, 662), "plane 662 is past 661, the largest "
     "whose exact output stays within 4300-digit numerals"),
    (lambda: sweep("ruzsa", 3, 1104), "ruzsa 1104 is past 1103, the largest "
     "whose exact output stays within 4300-digit numerals"),
], ids=["ours-v1", "ours-t0", "ours-t8", "jiang-v1", "jiang-t0", "jiang-t8",
        "steps-p4", "sandwich-p4", "sweep-plane-empty", "sweep-ruzsa-empty",
        "sweep-plane-printed", "sweep-ruzsa-printed"])
def test_domain_errors_name_the_argument(call, message):
    """Each formula, check and sweep refuses its arguments outside its
    domain with a message naming them."""
    with pytest.raises(AnalysisDomainError) as raised:
        call()
    assert str(raised.value) == message


def test_gap_to_baseline_is_one_over_v():
    for v, t in ((7, 3), (13, 4), (31, 6), (16, 6), (40, 13)):
        assert jiang_load(v, t) - ours_sd_load(v, t) == Fraction(1, v)


def test_ads_load_values():
    assert ads_load(6, 3, 1) == Fraction(5, 12)
    assert ads_load(6, 2, 0) == Fraction(2, 3)
    for p in range(3, 51):
        n, k = p * p - p, p - 1
        assert ads_load(n, k, 0) == Fraction(p * p + p - 4, 2 * (p * p - p))
    with pytest.raises(AnalysisDomainError):
        ads_load(6, 6, 0)


def test_master_inequality():
    check = li_lower_bound_inequality(5)
    assert (check.lhs, check.rhs, check.holds) == (15504, 9690, True)
    assert all(li_lower_bound_inequality(p).holds for p in range(5, 51))
    with pytest.raises(AnalysisDomainError):
        li_lower_bound_inequality(4)


def test_step_checks():
    steps = li_lower_bound_steps(5)
    assert (steps.dominance.lhs, steps.dominance.rhs) == (1820, 64)
    assert (steps.tail_bound.lhs, steps.tail_bound.rhs) == (128, 66)
    assert tuple(Fraction(a, b) for a, b in steps.ratio_pairs) == \
        (Fraction(1, 32),)
    assert steps.all_hold
    for p in range(5, 61):  # both verdicts agree with Fraction comparisons
        steps = li_lower_bound_steps(p)
        ratios = [Fraction(a, b) for a, b in steps.ratio_pairs]
        assert steps.ratios_increasing == all(
            a < b for a, b in zip(ratios, ratios[1:])), p
        assert steps.last_ratio_below_half == (ratios[-1] < Fraction(1, 2))
        assert steps.all_hold, p


def test_sandwich():
    sw = li_sandwich(5)
    assert sw.lower == Fraction(2, 7)
    assert sw.upper == Fraction(4, 7)
    assert sw.value == Fraction(2464, 4845)
    assert sw.holds
    for p in range(5, 32):
        assert li_sandwich(p).holds


def test_ratio_trend():
    """Load over the Li baseline shrinks toward 1 as p grows."""
    frozen = {5: "1.278105", 7: "1.228958", 11: "1.160603", 13: "1.138972",
              17: "1.109179", 19: "1.098545", 23: "1.082433",
              29: "1.066157", 31: "1.062066"}
    prev = None
    for p, decimal in frozen.items():
        n, k = p * p - p, p - 1
        ratio = ads_load(n, k, 0) / li_load(n, k, k)
        assert f"{float(ratio):.6f}" == decimal
        if prev is not None:
            assert ratio < prev
        if p >= 11:
            assert 1 < ratio <= Fraction(5, 4)
        prev = ratio


def test_prime_powers():
    assert [x for x in range(2, 20) if is_prime_power(x)] == \
        [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]
    assert not is_prime_power(1)
    assert not is_prime_power(12)


def test_design_families():
    labels = {label for b in range(2, 17)
              for label, _, _, _ in symmetric_design_families(b)}
    assert labels == {"b2+b+1", "b3+b2+b+1", "b3+2b2", "b3+b+1"}
    fourth = [b for b in range(2, 17)
              if any(label == "b3+b+1"
                     for label, _, _, _ in symmetric_design_families(b))]
    assert fourth == [3, 4, 6, 9]
    assert symmetric_design_families(2)[0] == ("b2+b+1", 7, 3, 1)
    assert ("b3+2b2", 16, 6, 2) in symmetric_design_families(2)
    assert symmetric_design_families(14) == []


def test_ours_beats_baseline_across_families():
    for b in range(2, 17):
        for label, v, t, lam in symmetric_design_families(b):
            assert ours_sd_load(v, t) < jiang_load(v, t), (b, label)


def test_sweep_plane():
    rows = sweep("plane", 2, 5)
    assert [row.param for row in rows] == [2, 3, 5]
    assert [row.K for row in rows] == [7, 13, 31]
    assert rows[0].L_ours == Fraction(11, 21)
    assert rows[0].L_li == Fraction(13, 25)
    assert rows[0].ratio == Fraction(275, 273)


def test_sweep_ruzsa():
    rows = sweep("ruzsa", 2, 7)
    assert [row.param for row in rows] == [3, 5, 7]
    assert all(row.L_jiang is None for row in rows)
    assert rows[0].L_ours == Fraction(2, 3)
    with pytest.raises(AnalysisDomainError):
        sweep("bogus", 2, 3)


def test_sweep_csv_format():
    text = sweep_csv(sweep("plane", 2, 3))
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "plane,2,7,3,4,7,7,11/21,2/3,13/25,275/273"
    # empty prime range leaves just the header
    assert sweep_csv(sweep("plane", 14, 16)) == CSV_HEADER + "\n"
    ruzsa = sweep_csv(sweep("ruzsa", 3, 3)).splitlines()[1]
    assert ruzsa == "ruzsa,3,6,2,2,6,6,2/3,,8/15,5/4"


def test_sweep_csv_decimal_columns():
    text = sweep_csv(sweep("plane", 2, 2), decimal=True)
    header, row = text.splitlines()
    assert header.endswith(
        ",L_ours_dec,L_jiang_dec,L_li_dec,ratio_ours_li_dec")
    assert row.endswith(",0.523809523810,0.666666666667,0.52,1.00732600733")
