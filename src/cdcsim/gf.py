"""Exact arithmetic over the binary fields GF(2^m).

Elements are ints in [0, 2^m): addition is XOR, multiplication is
carry-less polynomial multiplication reduced by a modulus chosen by rule,
the smallest irreducible polynomial of degree m, found by Rabin's test.
The rule is fixed, so transcripts are reproducible across runs and
machines.  Inverses come from the extended Euclidean algorithm over
GF(2)[x].  No floats anywhere, no hidden randomness; every operation is
exact and deterministic.

Multiplying by a constant of GF(2^m) is GF(2)-linear, so the power-sum
code of the sd shuffle runs on packed bit matrices (the XOR coding of
Blomer et al., ICSI TR-95-048, 1995): a plan is one packed int per input
bit, and apply_plan XORs the columns at the set bits of its packed input.
solve_plan holds the solve of n power sums as n*m columns, one per
(degree, point set); power_sum_plan holds the power sums of one term at
one point as m columns.  Both are built by shifts, once, and cached.  The
public mul and inv range-check their operands; internal multiplies, whose
operands are field elements by construction, skip the check, and
solve_power_sums checks its points and sums once at its boundary.  The
module also holds is_prime, the primality test of the design and
analysis code.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import List, Sequence, Tuple

# The largest extension degree served: it admits the fields of the planes
# of order 11 (GF(2^48)) and 13 (GF(2^56)) and keeps larger schemes, such
# as plane 31 over GF(2^160), outside the simulated domain.
MAX_DEGREE = 64


class FieldError(ValueError):
    """Invalid field parameter or element."""


# solve_power_sums, which perfbench/micro.py imports from here, and the
# SingularMatrixError it raises stay in this module, not the package root.
class SingularMatrixError(ValueError):
    """Linear system without a unique solution."""


def _poly_mod(a: int, f: int) -> int:
    """Remainder of a modulo f in GF(2)[x]; bit i is the coefficient of x^i."""
    n = f.bit_length()
    while (shift := a.bit_length() - n) >= 0:
        a ^= f << shift
    return a


def _is_irreducible(f: int) -> bool:
    """Rabin's test (Rabin, SIAM J. Comput. 9, 1980) for f of degree m >= 1.

    f is irreducible iff x^(2^m) = x (mod f) and, for every prime p
    dividing m, gcd(x^(2^(m/p)) - x, f) = 1.  Squaring in GF(2)[x] spreads
    the coefficients to the even powers.
    """
    m = f.bit_length() - 1
    x = _poly_mod(0b10, f)
    checks = {m // p for p in range(2, m + 1) if m % p == 0 and is_prime(p)}
    power = x  # x^(2^k) mod f
    for k in range(1, m + 1):
        power = _poly_mod(int("0".join(format(power, "b")), 2), f)
        if k in checks:
            a, b = f, power ^ x
            while b:
                a, b = b, _poly_mod(a, b)
            if a != 1:
                return False
    return power == x


@functools.cache
def _smallest_irreducible(m: int) -> int:
    """The smallest irreducible f of degree m.

    For m >= 2, x divides an f without a constant term and x + 1 one with
    an even number of terms (then f(1) = 0), so neither goes to the test.
    """
    return next(f for f in range(1 << m, 2 << m)
                if (m == 1 or f & 1 and f.bit_count() & 1)
                and _is_irreducible(f))


class BinaryField:
    """GF(2^m) modulo the smallest irreducible polynomial of degree m."""

    def __init__(self, m: int):
        if not 1 <= m <= MAX_DEGREE:
            raise FieldError(
                f"extension degree must be in 1..{MAX_DEGREE}, got {m}")
        self.m = m
        self.order = 1 << m
        self.modulus = _smallest_irreducible(m)

    def __repr__(self) -> str:
        return f"BinaryField(m={self.m}, modulus=0x{self.modulus:x})"

    def _check(self, *elements: int) -> None:
        for a in elements:
            if not 0 <= a < self.order:
                raise FieldError(f"element {a} outside [0, {self.order})")

    def mul(self, a: int, b: int) -> int:
        """Product of two elements, each range-checked."""
        self._check(a, b)
        return self._mul(a, b)

    def _mul(self, a: int, b: int) -> int:
        """Shift-and-add product, reducing a each time it reaches degree m.

        No range check: internal callers pass field elements by
        construction.
        """
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

    def inv(self, a: int) -> int:
        """Extended Euclid over GF(2)[x]: each remainder r is kept with an s
        such that r = s*a (mod modulus); once r is 1, s is the inverse."""
        self._check(a)
        if a == 0:
            raise FieldError("zero is not invertible")
        r0, s0, r1, s1 = a, 1, self.modulus, 0
        while r0 != 1:
            shift = r0.bit_length() - r1.bit_length()
            if shift < 0:
                r0, s0, r1, s1 = r1, s1, r0, s0
                shift = -shift
            r0 ^= r1 << shift
            s0 ^= s1 << shift
        return s0


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


# Each plan cache holds at most this many plans, since callers may pass
# any point sets.  A solve plan of n = 8 points over GF(2^64) is 512
# columns of 512 bits, 49 952 bytes with its tuple, and a power-sum plan
# of 8 powers there 6 432 bytes: full caches of such plans take 55 MiB.
_PLAN_CACHE = 1024

# bytes.translate table: the characters "0" and "1" to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def apply_plan(columns: Sequence[int], packed: int) -> int:
    """XOR of columns[i] over the set bits i of packed, a nonnegative int.

    A GF(2)-linear map held as packed columns: bit i of the input selects
    column i.  Bits past the last column are ignored, so callers
    range-check what they pack.
    """
    bits = format(packed, "b").encode().translate(_BIT_BYTES)[::-1]
    return functools.reduce(operator.xor, itertools.compress(columns, bits),
                            0)


def _times_x_columns(field: BinaryField, start: int,
                     lanes: int) -> List[int]:
    """start * x^b for b = 0..m-1, start holding lanes packed elements.

    Multiplying by x is a shift and, in each lane whose top bit falls
    out, a reduce: the low terms of the modulus XORed into that lane.
    """
    m = field.m
    top = sum(1 << (k * m + m - 1) for k in range(lanes))
    low = field.modulus ^ field.order
    columns = []
    for _ in range(m):
        columns.append(start)
        high = start & top
        # one copy of low per lane whose top bit fell out; the copies do
        # not overlap, so the integer product is their XOR
        start = ((start ^ high) << 1) ^ (high >> (m - 1)) * low
    return columns


def pack_lanes(elements: Sequence[int], m: int) -> int:
    """Elements of GF(2^m) as m-bit lanes of one int, element 0 lowest.

    No range check: an element of more than m bits would spill into the
    next lane, so callers pass field elements or check first.
    """
    packed = 0
    for e in reversed(elements):
        packed = packed << m | e
    return packed


def unpack_lanes(packed: int, m: int, n: int) -> List[int]:
    """The first n m-bit lanes of packed, lane 0 first."""
    mask = (1 << m) - 1
    return [packed >> (j * m) & mask for j in range(n)]


@functools.lru_cache(maxsize=_PLAN_CACHE)
def solve_plan(m: int, points: Tuple[int, ...]) -> Tuple[int, ...]:
    """The solve of the power sums at distinct points over GF(2^m), as a
    GF(2) bit matrix: n*m packed columns, one per input bit.

    Input bit p*m + b is bit b of sums_p; output lane j (bits j*m and up)
    is u_j.  The rows come from the transpose of the interpolation
    system, solved in closed form (Bjorck and Pereyra, Math. Comp. 24,
    1970).  With M(z) = prod_i (z - x_i) and Q_j = M / (z - x_j),
    sum_p coef_p(Q_j) * sums_p = Q_j(x_j) * u_j, since Q_j vanishes at
    every other point, so u_j = sum_p c_j[p] * sums_p with c_j the
    coefficients of Q_j over Q_j(x_j).  Distinct points make every
    Q_j(x_j) nonzero.  Multiplying by a constant is GF(2)-linear, so the
    columns of sums_p are the lanes c_j[p] times x^b, built by shifts.
    """
    field = BinaryField(m)
    mul, n = field._mul, len(points)
    # coefficients of M, constant term first
    big = [1]
    for x in points:
        big = [0] + big
        for k in range(len(big) - 1):
            big[k] ^= mul(x, big[k + 1])
    rows = []
    for j, x in enumerate(points):
        # synthetic division M / (z - x), top coefficient down
        coef = [1] * n
        for k in range(n - 1, 0, -1):
            coef[k - 1] = big[k] ^ mul(x, coef[k])
        den = 1
        for i, y in enumerate(points):
            if i != j:
                den = mul(den, x ^ y)
        inv_den = field.inv(den)
        rows.append([mul(c, inv_den) for c in coef])
    columns = []
    for p in range(n):
        columns += _times_x_columns(
            field, pack_lanes([row[p] for row in rows], m), n)
    return tuple(columns)


@functools.lru_cache(maxsize=_PLAN_CACHE)
def power_sum_plan(m: int, point: int, count: int) -> Tuple[int, ...]:
    """The map value -> (value * point^p for p = 0..count-1) over GF(2^m),
    as m packed columns: lane p of the output is the p-th power sum of
    one term."""
    field = BinaryField(m)
    powers, power = [], 1
    for _ in range(count):
        powers.append(power)
        power = field._mul(power, point)
    return tuple(_times_x_columns(field, pack_lanes(powers, m), count))


def solve_power_sums(field: BinaryField, points: Sequence[int],
                     sums: Sequence[int]) -> List[int]:
    """Recover u_j from the weighted power sums sums_p = sum_j points[j]^p * u_j.

    One equation per power p = 0..n-1.  The solve plan of (m, points) is
    built once and cached; a solve packs the sums into one n*m-bit int and
    XORs the plan's columns at its set bits.
    """
    n = len(points)
    if len(set(points)) != n:
        raise SingularMatrixError("points must be distinct")
    if len(sums) != n:
        raise ValueError(f"expected {n} sums, got {len(sums)}")
    field._check(*points, *sums)
    m = field.m
    return unpack_lanes(
        apply_plan(solve_plan(m, tuple(points)), pack_lanes(sums, m)), m, n)
