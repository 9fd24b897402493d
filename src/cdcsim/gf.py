"""Exact arithmetic over the binary fields GF(2^m).

Elements are ints in [0, 2^m): addition is XOR, multiplication is
carry-less polynomial multiplication reduced by a fixed irreducible
modulus.  No floats anywhere, no hidden randomness; every operation is
exact and deterministic.  The module also holds is_prime, the primality
test of the design and analysis code.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set


class FieldError(ValueError):
    """Invalid field parameter or element."""


class SingularMatrixError(ValueError):
    """Linear system without a unique solution."""


# One irreducible polynomial per degree, the lexicographically smallest.
# Bit i of the encoding is the coefficient of x^i.  The table is fixed so
# transcripts are reproducible across runs and machines; each entry is
# re-checked by trial division the first time a field uses it.
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


def poly_degree(f: int) -> int:
    """Degree of a GF(2) polynomial encoded as an int; deg(0) is -1."""
    return f.bit_length() - 1


def poly_mod(a: int, b: int) -> int:
    """Remainder of GF(2) polynomial division of a by b (b != 0)."""
    db = poly_degree(b)
    while a and poly_degree(a) >= db:
        a ^= b << (poly_degree(a) - db)
    return a


def poly_is_irreducible(f: int) -> bool:
    """Trial division by every polynomial of degree 1..deg(f)/2."""
    m = poly_degree(f)
    if m < 1:
        return False
    for d in range(2, 1 << (m // 2 + 1)):
        if poly_mod(f, d) == 0:
            return False
    return True


_checked_moduli: Set[int] = set()


class BinaryField:
    """GF(2^m) with a fixed irreducible modulus."""

    def __init__(self, m: int, modulus: int | None = None):
        if m < 1:
            raise FieldError(f"extension degree must be >= 1, got {m}")
        if modulus is None:
            try:
                modulus = IRREDUCIBLE_POLY[m]
            except KeyError:
                raise FieldError(
                    f"no built-in modulus of degree {m}; the table covers "
                    f"degrees 1..{max(IRREDUCIBLE_POLY)}"
                ) from None
        if poly_degree(modulus) != m:
            raise FieldError(f"modulus 0x{modulus:x} does not have degree {m}")
        if modulus not in _checked_moduli:
            if not poly_is_irreducible(modulus):
                raise FieldError(f"modulus 0x{modulus:x} is reducible")
            _checked_moduli.add(modulus)
        self.m = m
        self.modulus = modulus
        self.order = 1 << m

    def __repr__(self) -> str:
        return f"BinaryField(m={self.m}, modulus=0x{self.modulus:x})"

    def _check(self, *elements: int) -> None:
        for a in elements:
            if not 0 <= a < self.order:
                raise FieldError(f"element {a} outside [0, {self.order})")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        """Same as add: every element is its own additive inverse."""
        return self.add(a, b)

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            a <<= 1
            b >>= 1
        return poly_mod(acc, self.modulus)

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

    def elements(self) -> range:
        return range(self.order)


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


def solve_linear(field: BinaryField, matrix: Sequence[Sequence[int]],
                 rhs: Sequence[int]) -> List[int]:
    """Solve the square system matrix*u = rhs by Gaussian elimination.

    Exact; raises SingularMatrixError when the matrix is not invertible.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("system is not square")
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError(f"no pivot available in column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = field.inv(aug[col][col])
        aug[col] = [field.mul(scale, x) for x in aug[col]]
        for row in range(n):
            if row != col and aug[row][col] != 0:
                factor = aug[row][col]
                aug[row] = [field.sub(x, field.mul(factor, y))
                            for x, y in zip(aug[row], aug[col])]
    return [aug[i][n] for i in range(n)]


def solve_power_sums(field: BinaryField, points: Sequence[int],
                     sums: Sequence[int]) -> List[int]:
    """Recover u_j from the weighted power sums sums_p = sum_j points[j]^p * u_j.

    The transpose of the interpolation system: one equation per power
    p = 0..len(points)-1.  Distinct points make it uniquely solvable.
    """
    if len(set(points)) != len(points):
        raise SingularMatrixError("points must be distinct")
    if len(sums) != len(points):
        raise ValueError(f"expected {len(points)} sums, got {len(sums)}")
    matrix = [[field.pow(x, p) for x in points] for p in range(len(points))]
    return solve_linear(field, matrix, sums)
