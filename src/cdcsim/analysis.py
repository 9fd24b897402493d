"""Exact communication-load formulas and inequality checks.

Every load is a Fraction and every inequality is decided over the
integers, so nothing here depends on floating point.  "Li" and "Jiang"
name the two literature baselines the constructed schemes are measured
against: the general cascaded lower-envelope scheme and the earlier
placement-delivery scheme on the same designs.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import List, NamedTuple, Optional, Tuple

from .gf import is_prime


class AnalysisDomainError(ValueError):
    """Formula arguments outside the formula's domain."""


def li_load(K: int, r: int, s: int) -> Fraction:
    """Communication load of the general cascaded scheme.

    Sum over message sizes ell from max(r+1, s) to min(r+s, K) of
    C(K-r, K-ell)*C(r, ell-s)/C(K, s) * (ell-r)/(ell-1); an empty range
    gives 0, so full replication r = K costs nothing.  The terms are summed
    as integers over one common denominator C(K, s) * lcm(ell - 1), so
    only the total is reduced.  The binomial product
    c_ell = C(K-r, K-ell)*C(r, ell-s) is stepped exactly as
    c_{ell+1} = c_ell*(K-ell)*(r+s-ell) // ((ell+1-r)*(ell+1-s)).
    """
    if K < 1:
        raise AnalysisDomainError(f"K must be positive, got {K}")
    if not 1 <= r <= K or not 1 <= s <= K:
        raise AnalysisDomainError(
            f"need 1 <= r, s <= K, got r={r}, s={s}, K={K}")
    lo, hi = max(r + 1, s), min(r + s, K)
    if lo > hi:
        return Fraction(0)
    common = lcm(*range(lo - 1, hi))
    c = comb(K - r, K - lo) * comb(r, lo - s)
    numerator = 0
    for ell in range(lo, hi + 1):
        numerator += c * (ell - r) * (common // (ell - 1))
        c = c * (K - ell) * (r + s - ell) // ((ell + 1 - r) * (ell + 1 - s))
    return Fraction(numerator, comb(K, s) * common)


def ours_sd_load(v: int, t: int) -> Fraction:
    """Load of the symmetric-design scheme: ((v-1)^2 - tv + v)/(v(v-1))."""
    if v <= 1:
        raise AnalysisDomainError(f"v must be at least 2, got {v}")
    if not 1 <= t <= v:
        raise AnalysisDomainError(f"need 1 <= t <= v, got t={t}")
    return Fraction((v - 1) ** 2 - t * v + v, v * (v - 1))


def jiang_load(v: int, t: int) -> Fraction:
    """Load of the baseline scheme on the same design: (v-t)/(v-1)."""
    if v <= 1:
        raise AnalysisDomainError(f"v must be at least 2, got {v}")
    if not 1 <= t <= v:
        raise AnalysisDomainError(f"need 1 <= t <= v, got t={t}")
    return Fraction(v - t, v - 1)


def ads_load(n: int, k: int, lam: int) -> Fraction:
    """Load of the ADS scheme: (n-1)/(2n), or with the lam = 0 fallback
    (2(n-1) - k(k-1))/(2n)."""
    if n < 2 or not 1 <= k < n or lam < 0:
        raise AnalysisDomainError(
            f"need n >= 2, 1 <= k < n, lam >= 0, got n={n}, k={k}, lam={lam}")
    if lam >= 1:
        return Fraction(n - 1, 2 * n)
    return Fraction(2 * (n - 1) - k * (k - 1), 2 * n)


class InequalityCheck(NamedTuple):
    """An integer inequality lhs > rhs with its verdict."""

    lhs: int
    rhs: int
    holds: bool


@lru_cache(maxsize=1)  # both checks of one p share the terms
def _appendix_terms(p: int) -> Tuple[int, ...]:
    """a_ell = C((p-1)^2, ell)*C(p-1, ell) for ell = 0..p-1, stepped
    exactly from a_0 = 1 as
    a_{ell+1} = a_ell*((p-1)^2-ell)*(p-1-ell) // (ell+1)^2."""
    m, a, terms = (p - 1) ** 2, 1, []
    for ell in range(p):
        terms.append(a)
        a = a * (m - ell) * (p - 1 - ell) // ((ell + 1) * (ell + 1))
    return tuple(terms)


def li_lower_bound_inequality(p: int) -> InequalityCheck:
    """Master inequality behind the lower bound on the Li load at
    K = p^2 - p, r = s = p - 1.

    Checks sum_{ell=0}^{p-1} ell*C((p-1)^2, ell)*C(p-1, ell)
    > (p-3)*C(p^2-p, p-1).  The terms a_ell = C((p-1)^2, ell)*C(p-1, ell)
    come from the exact recurrence of _appendix_terms, not one binomial
    each.
    """
    if p < 5:
        raise AnalysisDomainError(f"defined for p >= 5, got {p}")
    lhs = sum(ell * a for ell, a in enumerate(_appendix_terms(p)))
    rhs = (p - 3) * comb(p * p - p, p - 1)
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=lhs > rhs)


class StepChecks(NamedTuple):
    """The chain of elementary steps that proves the master inequality."""

    dominance: InequalityCheck
    tail_bound: InequalityCheck
    ratio_pairs: Tuple[Tuple[int, int], ...]  # (numerator, denominator)
    ratios_increasing: bool
    last_ratio_below_half: bool

    @property
    def all_hold(self) -> bool:
        return (self.dominance.holds and self.tail_bound.holds
                and self.ratios_increasing and self.last_ratio_below_half)


def li_lower_bound_steps(p: int) -> StepChecks:
    """Elementary steps behind li_lower_bound_inequality.

    With d_ell = (p-3-ell)*C(p-1, p-1-ell)*C((p-1)^2, ell) for
    ell = 0..p-4: the top binomial dominates the last deficit term, twice
    that term bounds the whole deficit sum, and the consecutive ratios
    d_ell/d_{ell+1} increase while staying below one half.

    Since C(p-1, p-1-ell) = C(p-1, ell), d_ell = (p-3-ell)*a_ell over the
    terms of _appendix_terms, and with m = (p-1)^2 each ratio is a
    quotient of small integers: d_ell/d_{ell+1}
    = (p-3-ell)*(ell+1)^2 / ((p-4-ell)*(m-ell)*(p-1-ell)).  Both ratio
    verdicts compare these stored pairs by integer cross-multiplication;
    every denominator is positive.
    """
    if p < 5:
        raise AnalysisDomainError(f"defined for p >= 5, got {p}")
    m = (p - 1) ** 2
    deficit = sum((p - 3 - ell) * a
                  for ell, a in enumerate(_appendix_terms(p)[:p - 3]))
    top, last = comb(m, p - 1), comb(p - 1, 3) * comb(m, p - 4)
    dominance = InequalityCheck(lhs=top, rhs=last, holds=top > last)
    tail = InequalityCheck(lhs=2 * last, rhs=deficit,
                           holds=2 * last > deficit)
    pairs = tuple(((p - 3 - ell) * (ell + 1) ** 2,
                   (p - 4 - ell) * (m - ell) * (p - 1 - ell))
                  for ell in range(p - 4))
    increasing = all(a * d < c * b
                     for (a, b), (c, d) in zip(pairs, pairs[1:]))
    below_half = not pairs or 2 * pairs[-1][0] < pairs[-1][1]
    return StepChecks(dominance=dominance, tail_bound=tail, ratio_pairs=pairs,
                      ratios_increasing=increasing,
                      last_ratio_below_half=below_half)


class Sandwich(NamedTuple):
    """lower < value < upper with its verdict."""

    lower: Fraction
    value: Fraction
    upper: Fraction
    holds: bool


def li_sandwich(p: int) -> Sandwich:
    """Bracket the Li load at K = p^2-p, r = s = p-1 between
    (p-3)/(2p-3) and (p-1)/(2p-3)."""
    if p < 5:
        raise AnalysisDomainError(f"defined for p >= 5, got {p}")
    value = li_load(p * p - p, p - 1, p - 1)
    lower = Fraction(p - 3, 2 * p - 3)
    upper = Fraction(p - 1, 2 * p - 3)
    return Sandwich(lower=lower, value=value, upper=upper,
                    holds=lower < value < upper)


# The largest parameter of each report whose exact output prints.  The next
# parameter with a row of its own (plane 673, ruzsa 1109, p = 1107, the first
# failures measured) has a numeral of more than 4300 digits, CPython's
# default int-to-str limit, at which cli.entry fixes it.
MAX_PRINTED = {"plane": 661, "ruzsa": 1103, "p": 1106}


def check_printed(name: str, top: int) -> None:
    """Refuse a range whose top parameter is past the cap of MAX_PRINTED
    named name, before any term is computed."""
    cap = MAX_PRINTED[name]
    if top > cap:
        raise AnalysisDomainError(
            f"{name} {top} is past {cap}, the largest whose exact output "
            f"stays within 4300-digit numerals")


class SweepRow(NamedTuple):
    """One comparison row: design parameters plus the three loads."""

    family: str
    param: int
    K: int
    r: int
    s: int
    L_ours: Fraction
    L_jiang: Optional[Fraction]
    L_li: Fraction

    @property
    def ratio(self) -> Fraction:
        return self.L_ours / self.L_li


def sweep(family: str, lo: int, hi: int) -> List[SweepRow]:
    """Load-comparison rows over a prime parameter range.

    family "plane" walks projective planes of prime order b; family
    "ruzsa" walks the lam = 0 ADS construction at prime p >= 3.
    Values that are not prime, and 2 for ruzsa, are skipped.  hi past
    MAX_PRINTED[family] is refused.
    """
    if family not in ("plane", "ruzsa"):
        raise AnalysisDomainError(f"unknown family {family!r}")
    if lo > hi:
        raise AnalysisDomainError(f"empty range [{lo}, {hi}]")
    check_printed(family, hi)
    rows = []
    for b in range(lo, hi + 1):
        if not is_prime(b) or (family == "ruzsa" and b < 3):
            continue
        if family == "plane":
            v, t = b * b + b + 1, b + 1
            rows.append(SweepRow(
                family="plane", param=b, K=v, r=t, s=v - t,
                L_ours=ours_sd_load(v, t), L_jiang=jiang_load(v, t),
                L_li=li_load(v, t, v - t)))
        else:
            n, k = b * b - b, b - 1
            rows.append(SweepRow(
                family="ruzsa", param=b, K=n, r=k, s=k,
                L_ours=ads_load(n, k, 0), L_jiang=None,
                L_li=li_load(n, k, k)))
    return rows


CSV_HEADER = "family,param,K,r,s,N,Q,L_ours,L_jiang,L_li,ratio_ours_li"

_DECIMAL_COLUMNS = ",L_ours_dec,L_jiang_dec,L_li_dec,ratio_ours_li_dec"


def _dec(x: Optional[Fraction]) -> str:
    if x is None:
        return ""
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def sweep_csv(rows: List[SweepRow], decimal: bool = False) -> str:
    """Render sweep rows as CSV, exact fractions first, K = N = Q."""
    lines = [CSV_HEADER + (_DECIMAL_COLUMNS if decimal else "")]
    for row in rows:
        jiang = "" if row.L_jiang is None else str(row.L_jiang)
        cells = [row.family, str(row.param), str(row.K), str(row.r),
                 str(row.s), str(row.K), str(row.K), str(row.L_ours),
                 jiang, str(row.L_li), str(row.ratio)]
        if decimal:
            cells += [_dec(row.L_ours), _dec(row.L_jiang), _dec(row.L_li),
                      _dec(row.ratio)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
