"""Exact communication-load formulas and inequality checks.

Every load is a Fraction and every inequality is decided over the
integers, so nothing here depends on floating point.  "Li" and "Jiang"
name the two literature baselines the constructed schemes are measured
against: the general cascaded lower-envelope scheme and the earlier
placement-delivery scheme on the same designs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb
from typing import List, Optional, Tuple

from .gf import is_prime

log = logging.getLogger(__name__)


class AnalysisDomainError(ValueError):
    """Formula arguments outside the formula's domain."""


def li_load(K: int, r: int, s: int) -> Fraction:
    """Communication load of the general cascaded scheme.

    Sum over message sizes ell from max(r+1, s) to min(r+s, K) of
    C(K-r, K-ell)*C(r, ell-s)/C(K, s) * (ell-r)/(ell-1); an empty range
    gives 0, so full replication r = K costs nothing.
    """
    if K < 1:
        raise AnalysisDomainError(f"K must be positive, got {K}")
    if not 1 <= r <= K or not 1 <= s <= K:
        raise AnalysisDomainError(
            f"need 1 <= r, s <= K, got r={r}, s={s}, K={K}")
    total = Fraction(0)
    for ell in range(max(r + 1, s), min(r + s, K) + 1):
        total += (Fraction(comb(K - r, K - ell) * comb(r, ell - s), comb(K, s))
                  * Fraction(ell - r, ell - 1))
    return total


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


@dataclass(frozen=True)
class InequalityCheck:
    """An integer inequality lhs > rhs with its verdict."""

    lhs: int
    rhs: int
    holds: bool


def li_lower_bound_inequality(p: int) -> InequalityCheck:
    """Master inequality behind the lower bound on the Li load at
    K = p^2 - p, r = s = p - 1.

    Checks sum_{ell=0}^{p-1} ell*C((p-1)^2, ell)*C(p-1, ell)
    > (p-3)*C(p^2-p, p-1).
    """
    if p < 5:
        raise AnalysisDomainError(f"defined for p >= 5, got {p}")
    m = (p - 1) ** 2
    lhs = sum(ell * comb(m, ell) * comb(p - 1, ell) for ell in range(p))
    rhs = (p - 3) * comb(p * p - p, p - 1)
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=lhs > rhs)


@dataclass(frozen=True)
class StepChecks:
    """The chain of elementary steps that proves the master inequality."""

    dominance: InequalityCheck
    tail_bound: InequalityCheck
    ratios: Tuple[Fraction, ...]
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
    """
    if p < 5:
        raise AnalysisDomainError(f"defined for p >= 5, got {p}")
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
    return StepChecks(dominance=dominance, tail_bound=tail, ratios=ratios,
                      ratios_increasing=increasing,
                      last_ratio_below_half=below_half)


@dataclass(frozen=True)
class Sandwich:
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


def symmetric_design_families(b: int) -> List[Tuple[str, int, int, int]]:
    """Admissible (v, t, lam) parameter families at order b.

    Three families need b to be a prime power; the fourth needs both b-1
    and b^2-b+1 to be prime powers.  Each returned triple satisfies the
    counting identity lam*(v-1) = t*(t-1).
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


@dataclass(frozen=True)
class SweepRow:
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
    Non-prime values in the range are skipped with a log note.
    """
    if family not in ("plane", "ruzsa"):
        raise AnalysisDomainError(f"unknown family {family!r}")
    if lo > hi:
        raise AnalysisDomainError(f"empty range [{lo}, {hi}]")
    rows = []
    for b in range(lo, hi + 1):
        if not is_prime(b) or (family == "ruzsa" and b < 3):
            log.info("skipping %d: not usable for family %s", b, family)
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
