import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdcsim.gf import (MAX_DEGREE, BinaryField, FieldError,
                       SingularMatrixError, _is_irreducible,
                       _smallest_irreducible, apply_plan, is_prime,
                       power_sum_plan, solve_plan, solve_power_sums)


def poly_mod(a, b):
    """Remainder of GF(2) polynomial division of a by b (b != 0)."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def poly_is_irreducible(f):
    """Trial division by every polynomial of degree 1..deg(f)/2."""
    m = f.bit_length() - 1
    if m < 1:
        return False
    return all(poly_mod(f, d) for d in range(2, 1 << (m // 2 + 1)))


def clmul(a, b):
    """Carry-less product of two GF(2) polynomials."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def reference_inv(f, a):
    """a^(2^m - 2) by square-and-multiply (Fermat), for a != 0."""
    result, base, e = 1, a, f.order - 2
    while e:
        if e & 1:
            result = f.mul(result, base)
        base = f.mul(base, base)
        e >>= 1
    return result


def reference_solve(f, points, sums):
    """The closed form of Bjorck and Pereyra, solved afresh each call:
    u_j = sum_p coef_p(Q_j) * sums_p / Q_j(x_j), Q_j = prod_{i != j}
    (z - x_i)."""
    n = len(points)
    m = [1]  # coefficients of prod_i (z - x_i), constant term first
    for x in points:
        m = [0] + m
        for k in range(len(m) - 1):
            m[k] ^= f.mul(x, m[k + 1])
    out = []
    for j, x in enumerate(points):
        q = 1  # synthetic division, top coefficient down
        num = sums[n - 1]
        for k in range(n - 1, 0, -1):
            q = m[k] ^ f.mul(x, q)
            num ^= f.mul(q, sums[k - 1])
        den = 1
        for i, y in enumerate(points):
            if i != j:
                den = f.mul(den, x ^ y)
        out.append(f.mul(num, f.inv(den)))
    return out


def forward_sums(f, points, values):
    """sums_p = sum_j points[j]^p * values[j] for p = 0..len(points)-1."""
    sums = [0] * len(points)
    for pt, val in zip(points, values):
        term = val
        for power in range(len(points)):
            sums[power] ^= term
            term = f.mul(term, pt)
    return sums


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


def test_element_range_checked():
    f = BinaryField(3)
    for a, b in ((8, 1), (1, 8), (-1, 1), (1, -1)):
        with pytest.raises(FieldError):
            f.mul(a, b)
    with pytest.raises(FieldError):
        f.inv(8)


def test_modulus_is_smallest_irreducible():
    """The modulus rule is the first f >= 2^m that trial division finds
    irreducible; this pins every transcript coded over degrees 1..32."""
    for m in range(1, 33):
        first = next(f for f in range(1 << m, 2 << m)
                     if poly_is_irreducible(f))
        assert BinaryField(m).modulus == first, m
    assert not poly_is_irreducible(0b101)  # (x+1)^2
    assert poly_is_irreducible(0b111)


def test_modulus_search_skips_only_reducible_candidates():
    """The search skips candidates divisible by x or x + 1 without the
    test; it finds what testing every candidate finds, at every degree."""
    for m in range(1, MAX_DEGREE + 1):
        first = next(f for f in range(1 << m, 2 << m) if _is_irreducible(f))
        assert _smallest_irreducible(m) == first, m


@given(st.integers(2, (1 << 17) - 1))
def test_rabin_agrees_with_trial_division(f):
    """Every f of degree 1..16."""
    assert _is_irreducible(f) == poly_is_irreducible(f)


@st.composite
def reducible_products(draw):
    """g*h with deg g, deg h >= 1 and deg g + deg h <= MAX_DEGREE."""
    dg = draw(st.integers(1, MAX_DEGREE - 1))
    dh = draw(st.integers(1, MAX_DEGREE - dg))
    g = draw(st.integers(1 << dg, (2 << dg) - 1))
    h = draw(st.integers(1 << dh, (2 << dh) - 1))
    return clmul(g, h)


@given(reducible_products())
def test_rabin_rejects_products(f):
    assert not _is_irreducible(f)


@given(st.integers(1, MAX_DEGREE), st.data())
def test_inv_matches_fermat(m, data):
    f = BinaryField(m)
    a = data.draw(st.integers(1, f.order - 1))
    assert f.inv(a) == reference_inv(f, a)
    assert f.mul(a, f.inv(a)) == 1


def test_large_degrees_usable():
    # 18 carries the (31,6,1) scheme, 48 and 56 planes 11 and 13
    assert MAX_DEGREE == 64
    for m in (18, 32, 48, 56, 64):
        f = BinaryField(m)
        a = (1 << (m - 1)) | 5
        assert f.mul(a, f.inv(a)) == 1
    for m in (0, MAX_DEGREE + 1):
        with pytest.raises(FieldError):
            BinaryField(m)


def test_power_sums_round_trip():
    f = BinaryField(6)
    rng = random.Random(7)
    for size in range(1, 7):
        points = rng.sample(range(64), size)
        values = [rng.randrange(64) for _ in range(size)]
        sums = forward_sums(f, points, values)
        assert solve_power_sums(f, points, sums) == values
    with pytest.raises(SingularMatrixError):
        solve_power_sums(f, [3, 3], [1, 0])
    with pytest.raises(ValueError, match="expected 2 sums"):
        solve_power_sums(f, [3, 4], [1])


@st.composite
def power_sum_systems(draw):
    """A degree m in 1..64, 1..min(8, 2^m) distinct points, one value each."""
    m = draw(st.integers(1, MAX_DEGREE))
    n = draw(st.integers(1, min(8, 1 << m)))
    element = st.integers(0, (1 << m) - 1)
    points = draw(st.lists(element, min_size=n, max_size=n, unique=True))
    values = draw(st.lists(element, min_size=n, max_size=n))
    return BinaryField(m), points, values


@given(power_sum_systems())
def test_solve_power_sums_inverts_forward_sums(system):
    f, points, values = system
    assert solve_power_sums(f, points, forward_sums(f, points, values)) == \
        values


@given(power_sum_systems(), st.data())
def test_solve_plan_matches_reference_solve(system, data):
    """Arbitrary right-hand sides, not only consistent ones; each system
    is solved twice so the second solve reuses the cached plan."""
    f, points, _ = system
    element = st.integers(0, f.order - 1)
    sums = data.draw(st.lists(element, min_size=len(points),
                              max_size=len(points)))
    expected = reference_solve(f, points, sums)
    assert solve_power_sums(f, points, sums) == expected
    assert solve_power_sums(f, tuple(points), sums) == expected


def pack(elements, m):
    """Elements as m-bit lanes of one int, element 0 lowest."""
    return sum(e << (i * m) for i, e in enumerate(elements))


def lanes(packed, m, n):
    return [packed >> (i * m) & ((1 << m) - 1) for i in range(n)]


@given(power_sum_systems(), st.data())
def test_bit_plan_matches_reference_solve(system, data):
    """The packed plan, applied by XORs alone, is the closed form: bit b
    of sum p selects column p*m + b, and lane j of the result is u_j.
    Each plan is applied twice, so the cached copy is exercised too."""
    f, points, _ = system
    m, n = f.m, len(points)
    element = st.integers(0, f.order - 1)
    sums = data.draw(st.lists(element, min_size=n, max_size=n))
    expected = reference_solve(f, points, sums)
    plan = solve_plan(m, tuple(points))
    assert len(plan) == n * m
    assert all(0 <= column < 1 << (n * m) for column in plan)
    assert lanes(apply_plan(plan, pack(sums, m)), m, n) == expected
    again = solve_plan(m, tuple(points))
    assert again is plan
    assert lanes(apply_plan(again, pack(sums, m)), m, n) == expected


@given(st.integers(1, MAX_DEGREE), st.data())
def test_power_sum_plan_matches_forward_sums(m, data):
    """The known-term map: lane p of one term's packed sums is
    value * point^p."""
    f = BinaryField(m)
    point = data.draw(st.integers(0, f.order - 1))
    value = data.draw(st.integers(0, f.order - 1))
    count = data.draw(st.integers(1, 8))
    expected, term = [], value
    for _ in range(count):
        expected.append(term)
        term = f.mul(term, point)
    plan = power_sum_plan(m, point, count)
    assert len(plan) == m
    assert lanes(apply_plan(plan, value), m, count) == expected


def plan_bytes(plan):
    return sys.getsizeof(plan) + sum(sys.getsizeof(c) for c in plan)


def test_plan_caches_are_bounded():
    """A full cache of the largest plans, n = 8 points over GF(2^64),
    stays under 64 MiB for solve plans and power-sum plans together."""
    largest = plan_bytes(solve_plan(64, tuple(range(1, 9))))
    largest_sums = plan_bytes(power_sum_plan(64, 8, 8))
    solves = solve_plan.cache_info().maxsize
    sums = power_sum_plan.cache_info().maxsize
    assert solves is not None and sums is not None
    assert solves * largest + sums * largest_sums < 64 * 2 ** 20


@given(power_sum_systems(), st.data())
def test_solve_power_sums_range_checked(system, data):
    """The plan multiplies skip the range check, so the boundary makes it:
    one point or sum outside GF(2^m) raises FieldError."""
    f, points, values = system
    sums = forward_sums(f, points, values)
    bad = data.draw(st.sampled_from([-1, f.order, f.order + 5]))
    i = data.draw(st.integers(0, len(points) - 1))
    if data.draw(st.booleans()):
        points = points[:i] + [bad] + points[i + 1:]  # still distinct
    else:
        sums = sums[:i] + [bad] + sums[i + 1:]
    with pytest.raises(FieldError):
        solve_power_sums(f, points, sums)


@given(power_sum_systems(), st.data())
def test_solve_power_sums_rejects_repeated_points(system, data):
    f, points, values = system
    repeated = points + [data.draw(st.sampled_from(points))]
    with pytest.raises(SingularMatrixError):
        solve_power_sums(f, repeated, forward_sums(f, points, values) + [0])


def test_prime_field_and_primality():
    assert [p for p in range(2, 32) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert not is_prime(1)
    assert is_prime(2 ** 31 - 1)


def test_is_prime_matches_trial_division():
    """Below 10^4 Miller-Rabin agrees with trial division; 1681 = 41^2 is
    the first composite that no witness divides, so the first that the
    witness loop itself rejects.  3215031751 is a strong pseudoprime to
    the bases 2, 3, 5 and 7, 3825123056546413051 to every prime base up
    to 23; both are composite.  2^31 - 1 and 2^61 - 1 are prime."""
    assert [n for n in range(10 ** 4) if is_prime(n)] == [
        n for n in range(2, 10 ** 4)
        if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert all(1681 % w for w in range(2, 41)) and not is_prime(1681)
    assert not is_prime(3215031751)  # 151 * 751 * 28351
    assert not is_prime(3825123056546413051)  # 149491 * 747451 * 34233211
    assert is_prime(2 ** 31 - 1) and is_prime(2 ** 61 - 1)
