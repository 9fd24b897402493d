import random

import numpy as np
import pytest

from cdcsim.gf import (BinaryField, FieldError, IRREDUCIBLE_POLY,
                       SingularMatrixError, is_prime, poly_is_irreducible,
                       solve_linear, solve_power_sums)


def mul_table(f):
    order = 1 << f.m
    table = np.zeros((order, order), dtype=np.uint16)
    for a in range(order):
        for b in range(order):
            table[a, b] = f.mul(a, b)
    return table


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_field_axioms_exhaustive(m):
    """Associativity, commutativity, distributivity over the whole field."""
    f = BinaryField(m)
    order = 1 << m
    table = mul_table(f)
    assert np.array_equal(table, table.T)
    # (a*b)*c == a*(b*c), both as (a, b, c) cubes
    assert np.array_equal(table[table], table[:, table])
    # a*(b^c) == (a*b)^(a*c)
    xors = np.bitwise_xor.outer(np.arange(order), np.arange(order))
    assert np.array_equal(table[:, xors],
                          np.bitwise_xor(table[:, :, None], table[:, None, :]))
    # 0 and 1 behave
    assert np.array_equal(table[0], np.zeros(order, dtype=np.uint16))
    assert np.array_equal(table[1], np.arange(order, dtype=np.uint16))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_add_self_inverse_exhaustive(m):
    f = BinaryField(m)
    for a in f.elements():
        for b in f.elements():
            assert f.add(f.add(a, b), b) == a


def test_add_examples():
    f = BinaryField(3)
    assert f.add(0b101, 0b101) == 0
    assert f.add(0b011, 0b110) == 0b101


def test_mul_examples():
    """x*x and x^2*x in GF(2^3) with modulus x^3+x+1."""
    f = BinaryField(3)
    assert f.modulus == 0b1011
    assert f.mul(0b010, 0b010) == 0b100
    assert f.mul(0b100, 0b010) == 0b011


def test_inv_example_and_exhaustive():
    f = BinaryField(3)
    assert f.inv(0b010) == 0b101
    g = BinaryField(4)
    for a in range(1, 16):
        assert g.mul(a, g.inv(a)) == 1
    with pytest.raises(FieldError):
        g.inv(0)


def test_pow_edge_cases():
    f = BinaryField(4)
    assert f.pow(0, 0) == 1
    assert f.pow(5, 1) == 5
    with pytest.raises(FieldError):
        f.pow(3, -1)


def test_element_range_checked():
    f = BinaryField(3)
    with pytest.raises(FieldError):
        f.mul(8, 1)
    with pytest.raises(FieldError):
        f.add(1, -1)


def test_irreducible_table_is_minimal():
    """Recompute the stored modulus for small degrees by brute force."""
    for m in range(1, 13):
        stored = IRREDUCIBLE_POLY[m]
        first = next(f for f in range(1 << m, 1 << (m + 1))
                     if poly_is_irreducible(f))
        assert stored == first
    assert not poly_is_irreducible(0b101)  # (x+1)^2
    assert poly_is_irreducible(0b111)


def test_large_degrees_usable():
    # 18 carries the (31,6,1) scheme, 32 is the table ceiling
    for m in (18, 32):
        f = BinaryField(m)
        a = (1 << (m - 1)) | 5
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(FieldError):
        BinaryField(33)


def test_power_sums_round_trip():
    f = BinaryField(6)
    rng = random.Random(7)
    for size in range(1, 7):
        points = rng.sample(range(64), size)
        values = [rng.randrange(64) for _ in range(size)]
        sums = []
        for power in range(size):
            acc = 0
            for pt, val in zip(points, values):
                acc ^= f.mul(f.pow(pt, power), val)
            sums.append(acc)
        assert solve_power_sums(f, points, sums) == values
    with pytest.raises(SingularMatrixError):
        solve_power_sums(f, [3, 3], [1, 0])


def test_solve_linear_singular():
    f = BinaryField(4)
    with pytest.raises(SingularMatrixError):
        solve_linear(f, [[1, 1], [1, 1]], [1, 0])


def test_prime_field_and_primality():
    assert [p for p in range(2, 32) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert not is_prime(1)
    assert is_prime(2 ** 31 - 1)
