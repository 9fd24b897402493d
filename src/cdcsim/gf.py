"""Exact arithmetic over the binary fields GF(2^m).

Elements are ints in [0, 2^m): addition is XOR, multiplication is
carry-less polynomial multiplication reduced by a fixed irreducible
modulus.  No floats anywhere, no hidden randomness; every operation is
exact and deterministic.  The module also holds is_prime, the primality
test of the design and analysis code.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


class FieldError(ValueError):
    """Invalid field parameter or element."""


class SingularMatrixError(ValueError):
    """Linear system without a unique solution."""


# One irreducible polynomial per degree, the lexicographically smallest.
# Bit i of the encoding is the coefficient of x^i.  The table is fixed so
# transcripts are reproducible across runs and machines; the test suite
# checks every entry by trial division.
IRREDUCIBLE_POLY: Dict[int, int] = {
    1: 0x2,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
    17: 0x20009,
    18: 0x40009,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
    25: 0x2000009,
    26: 0x400001B,
    27: 0x8000027,
    28: 0x10000003,
    29: 0x20000005,
    30: 0x40000003,
    31: 0x80000009,
    32: 0x10000008D,
}


class BinaryField:
    """GF(2^m) modulo IRREDUCIBLE_POLY[m]."""

    def __init__(self, m: int):
        if m < 1:
            raise FieldError(f"extension degree must be >= 1, got {m}")
        try:
            self.modulus = IRREDUCIBLE_POLY[m]
        except KeyError:
            raise FieldError(
                f"no built-in modulus of degree {m}; the table covers "
                f"degrees 1..{max(IRREDUCIBLE_POLY)}"
            ) from None
        self.m = m
        self.order = 1 << m

    def __repr__(self) -> str:
        return f"BinaryField(m={self.m}, modulus=0x{self.modulus:x})"

    def _check(self, *elements: int) -> None:
        for a in elements:
            if not 0 <= a < self.order:
                raise FieldError(f"element {a} outside [0, {self.order})")

    def mul(self, a: int, b: int) -> int:
        """Shift-and-add product, reducing a each time it reaches degree m."""
        self._check(a, b)
        order, modulus = self.order, self.modulus
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a & order:
                a ^= modulus
        return acc

    def pow(self, a: int, e: int) -> int:
        """a**e by square-and-multiply, with the convention 0**0 = 1."""
        self._check(a)
        if e < 0:
            raise FieldError("negative exponents are not defined here")
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise FieldError("zero is not invertible")
        return self.pow(a, self.order - 2)


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; this witness set is exact below 3.3e24."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def solve_power_sums(field: BinaryField, points: Sequence[int],
                     sums: Sequence[int]) -> List[int]:
    """Recover u_j from the weighted power sums sums_p = sum_j points[j]^p * u_j.

    The transpose of the interpolation system: one equation per power
    p = 0..n-1, solved in closed form (Bjorck and Pereyra, Math. Comp. 24,
    1970).  With M(z) = prod_i (z - x_i) and Q_j = M / (z - x_j),
    sum_p coef_p(Q_j) * sums_p = Q_j(x_j) * u_j, since Q_j vanishes at
    every other point.  Distinct points make every Q_j(x_j) nonzero; the
    n divisions share one field inversion.
    """
    n = len(points)
    if len(set(points)) != n:
        raise SingularMatrixError("points must be distinct")
    if len(sums) != n:
        raise ValueError(f"expected {n} sums, got {len(sums)}")
    if n == 0:
        return []
    mul = field.mul
    # coefficients of M, constant term first
    m = [1]
    for x in points:
        m = [0] + m
        for k in range(len(m) - 1):
            m[k] ^= mul(x, m[k + 1])
    numerators = []
    denominators = []
    for j, x in enumerate(points):
        # synthetic division M / (z - x), top coefficient down
        q = 1
        num = sums[n - 1]
        for k in range(n - 1, 0, -1):
            q = m[k] ^ mul(x, q)
            num ^= mul(q, sums[k - 1])
        den = 1
        for i, y in enumerate(points):
            if i != j:
                den = mul(den, x ^ y)
        numerators.append(num)
        denominators.append(den)
    # one inversion for all n denominators (prefix products)
    prefix = [1]
    for den in denominators:
        prefix.append(mul(prefix[-1], den))
    inv = field.inv(prefix[-1])
    out = [0] * n
    for j in range(n - 1, -1, -1):
        out[j] = mul(numerators[j], mul(inv, prefix[j]))
        inv = mul(inv, denominators[j])
    return out
