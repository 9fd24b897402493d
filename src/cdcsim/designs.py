"""Symmetric designs and almost difference sets.

Builders, brute-force verifiers, and JSON import/export for the two
combinatorial structures the schemes are built from: (v, t, lambda)
symmetric designs, and (n, k, lambda, mu) almost difference sets in Z_n
together with their n-translate developments.

Symmetric designs are stored canonically: each block ascending, the block
list sorted lexicographically.  Developments instead keep translate order,
block r being D + r, because the schemes built on them index nodes by the
translate shift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from .gf import is_prime


class DesignParameterError(ValueError):
    """Construction parameters outside what this library supports."""


@dataclass(frozen=True)
class DesignViolation:
    """First invariant a candidate design violates, with a witness."""

    invariant: str
    witness: Tuple
    message: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.message} (witness {self.witness})"


class DesignVerificationError(ValueError):
    """A candidate design or difference set failed verification."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


@dataclass(frozen=True)
class SymmetricDesign:
    """(v, t, lam) symmetric design: v points, v blocks of size t."""

    v: int
    t: int
    lam: int
    blocks: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class AlmostDifferenceSet:
    """k-subset D of Z_n whose difference function takes lam mu times.

    Over the n-1 nonzero shifts, diff_D takes the value lam exactly mu
    times and lam+1 the remaining n-1-mu times.
    """

    n: int
    k: int
    lam: int
    mu: int
    D: Tuple[int, ...]


@dataclass(frozen=True)
class AdsReport:
    """Why a subset is not an almost difference set."""

    n: int
    D: Tuple[int, ...]
    histogram: Tuple[Tuple[int, int], ...]
    message: str

    def __str__(self) -> str:
        hist = ", ".join(f"{value}:{count}" for value, count in self.histogram)
        return f"{self.message} (difference histogram {{{hist}}})"


@dataclass(frozen=True)
class Development:
    """The n translates D + r of an ADS, in translate order r = 0..n-1."""

    source: AlmostDifferenceSet
    blocks: Tuple[Tuple[int, ...], ...]


def verify_symmetric_design(
        v: int, blocks: Sequence[Sequence[int]]
) -> Union[SymmetricDesign, DesignViolation]:
    """Brute-force check of the symmetric-design invariants.

    Checks, in order: well-formed blocks, block count = v, uniform block
    size, constant pair multiplicity, constant replication, constant
    pairwise block intersection, and the counting identity
    lam*(v-1) = t*(t-1).  Returns a SymmetricDesign (blocks canonically
    sorted) on success, otherwise a DesignViolation for the first failure.
    """
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


def require_symmetric_design(v: int, blocks: Sequence[Sequence[int]]) -> SymmetricDesign:
    """verify_symmetric_design, but violations raise DesignVerificationError."""
    result = verify_symmetric_design(v, blocks)
    if isinstance(result, DesignViolation):
        raise DesignVerificationError(result)
    return result


def projective_plane(b: int) -> SymmetricDesign:
    """Projective plane of prime order b as a (b^2+b+1, b+1, 1) design.

    Points are the 1-dimensional subspaces of GF(b)^3, named by their
    normalized representative (first nonzero coordinate 1) in
    lexicographic order; blocks collect the points on each line a.x = 0.
    The result is re-verified by brute force before being returned.
    """
    if not is_prime(b):
        raise DesignParameterError(
            f"projective planes are built for prime orders only, got {b}")
    reps = [(x0, x1, x2)
            for x0 in range(b) for x1 in range(b) for x2 in range(b)
            if next((c for c in (x0, x1, x2) if c != 0), None) == 1]
    assert len(reps) == b * b + b + 1
    blocks = []
    for a0, a1, a2 in reps:
        block = tuple(i for i, (x0, x1, x2) in enumerate(reps)
                      if (a0 * x0 + a1 * x1 + a2 * x2) % b == 0)
        blocks.append(block)
    design = verify_symmetric_design(len(reps), blocks)
    if not isinstance(design, SymmetricDesign):
        raise AssertionError(f"plane construction for b={b} is broken: {design}")
    return design


def diff_function(D: Sequence[int], n: int, x: int) -> int:
    """|D intersect (D + x)| in Z_n."""
    if n < 1:
        raise DesignParameterError(f"group order must be positive, got {n}")
    if not 0 <= x < n:
        raise DesignParameterError(f"shift {x} outside [0, {n})")
    dset = set(D)
    if len(dset) != len(D):
        raise DesignParameterError("repeated element in D")
    if any(not 0 <= d < n for d in dset):
        raise DesignParameterError(f"element of D outside [0, {n})")
    return sum(1 for d in D if (d + x) % n in dset)


def classify_ads(D: Sequence[int], n: int) -> Union[AlmostDifferenceSet, AdsReport]:
    """Classify D inside Z_n by its difference function.

    Returns an AlmostDifferenceSet when diff_D takes exactly the two
    adjacent values {lam, lam+1} over nonzero shifts (mu = multiplicity of
    lam).  A constant difference function is the perfect-difference-set
    degenerate case, reported as (n, k, lam, n-1).  Anything else comes
    back as an AdsReport carrying the value histogram.
    """
    if n < 2:
        raise DesignParameterError(f"group order must be at least 2, got {n}")
    if len(D) == 0:
        raise DesignParameterError("D must be nonempty")
    ordered = tuple(sorted(D))
    counts: Dict[int, int] = {}
    for x in range(1, n):
        value = diff_function(ordered, n, x)
        counts[value] = counts.get(value, 0) + 1
    support = sorted(counts)
    k = len(ordered)
    if len(support) == 1:
        ads = AlmostDifferenceSet(n=n, k=k, lam=support[0], mu=n - 1, D=ordered)
    elif len(support) == 2 and support[1] == support[0] + 1:
        lam = support[0]
        ads = AlmostDifferenceSet(n=n, k=k, lam=lam, mu=counts[lam], D=ordered)
    else:
        return AdsReport(
            n=n, D=ordered, histogram=tuple(sorted(counts.items())),
            message=f"difference function takes values {support}, "
                    f"not two adjacent ones")
    assert ads.k * (ads.k - 1) == ads.mu * ads.lam + (n - 1 - ads.mu) * (ads.lam + 1)
    return ads


def smallest_primitive_root(p: int) -> int:
    """Smallest positive primitive root modulo the prime p."""
    if not is_prime(p):
        raise DesignParameterError(f"{p} is not prime")
    rest = p - 1
    factors = []
    f = 2
    while f * f <= rest:
        if rest % f == 0:
            factors.append(f)
            while rest % f == 0:
                rest //= f
        else:
            f += 1
    if rest > 1:
        factors.append(rest)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise AssertionError(f"no primitive root modulo {p}")


def ruzsa_ads(p: int) -> AlmostDifferenceSet:
    """Modular Golomb ruler in Z_{p(p-1)}: a (p^2-p, p-1, 0, 2p-3) ADS.

    Element i of 1..p-1 maps through the Chinese remainder theorem to the
    unique x with x = i mod (p-1) and x = g^i mod p, where g is the
    smallest primitive root of p.  The construction is classified before
    being returned and must come out with the stated parameters.
    """
    if not is_prime(p) or p < 3:
        raise DesignParameterError(f"need a prime p >= 3, got {p}")
    g = smallest_primitive_root(p)
    n = p * (p - 1)
    inv_p = pow(p, -1, p - 1)
    inv_q = pow(p - 1, -1, p)
    D = []
    for i in range(1, p):
        a = i % (p - 1)
        b = pow(g, i, p)
        D.append((a * p * inv_p + b * (p - 1) * inv_q) % n)
    ads = classify_ads(D, n)
    expected = (n, p - 1, 0, 2 * p - 3)
    if not isinstance(ads, AlmostDifferenceSet) or \
            (ads.n, ads.k, ads.lam, ads.mu) != expected:
        raise AssertionError(
            f"construction for p={p} did not classify as {expected}: {ads}")
    return ads


def complement_ads(a: AlmostDifferenceSet) -> AlmostDifferenceSet:
    """Complement Z_n minus D, an (n, n-k, n-2k+lam, mu) ADS."""
    dset = set(a.D)
    comp = [x for x in range(a.n) if x not in dset]
    out = classify_ads(comp, a.n)
    expected = (a.n, a.n - a.k, a.n - 2 * a.k + a.lam, a.mu)
    if not isinstance(out, AlmostDifferenceSet) or \
            (out.n, out.k, out.lam, out.mu) != expected:
        raise AssertionError(
            f"complement of {(a.n, a.k, a.lam, a.mu)} did not classify "
            f"as {expected}: {out}")
    return out


def develop(a: AlmostDifferenceSet) -> Development:
    """All n translates D + r of an ADS, block r = D + r for r = 0..n-1.

    Needs lam < k-1 so the translates are pairwise distinct and
    1 <= mu <= n-2 so the result is a proper 1-design rather than a
    2-design.  The point and pair censuses are re-checked by brute force.
    """
    n, k = a.n, a.k
    if a.lam >= a.k - 1:
        raise DesignParameterError(
            f"develop needs lam < k-1 for distinct translates, "
            f"got lam={a.lam}, k={a.k}")
    if not 1 <= a.mu <= n - 2:
        raise DesignParameterError(
            f"degenerate mu={a.mu}: develop needs 1 <= mu <= {n - 2}")
    blocks = tuple(tuple(sorted((d + r) % n for d in a.D)) for r in range(n))
    if len(set(blocks)) != n:
        raise AssertionError("translates are not pairwise distinct")
    replication = [0] * n
    pair_count: Dict[Tuple[int, int], int] = {}
    for block in blocks:
        for i, x in enumerate(block):
            replication[x] += 1
            for y in block[i + 1:]:
                pair_count[(x, y)] = pair_count.get((x, y), 0) + 1
    if any(count != k for count in replication):
        raise AssertionError("development is not a 1-design with replication k")
    census: Dict[int, int] = {}
    for x in range(n):
        for y in range(x + 1, n):
            multiplicity = pair_count.get((x, y), 0)
            census[multiplicity] = census.get(multiplicity, 0) + 1
    expected = {}
    if a.mu:
        expected[a.lam] = a.n * a.mu // 2
    if n - 1 - a.mu:
        expected[a.lam + 1] = n * (n - 1 - a.mu) // 2
    if census != expected:
        raise AssertionError(
            f"pair census {census} does not match expected {expected}")
    return Development(source=a, blocks=blocks)


def export_design(design: SymmetricDesign) -> str:
    """Canonical JSON for a symmetric design (byte-stable)."""
    doc = {"v": design.v, "blocks": [list(b) for b in design.blocks]}
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(x, what: str) -> List[int]:
    """x itself when it is a JSON list of integers; otherwise raise."""
    if not isinstance(x, list) or not all(_is_int(e) for e in x):
        raise DesignVerificationError(f"{what} must be a list of integers")
    return x


def import_design(text: str) -> SymmetricDesign:
    """Parse and verify a symmetric-design JSON document."""
    data = json.loads(text)
    if not isinstance(data, dict) or "v" not in data or "blocks" not in data:
        raise DesignParameterError("design document needs keys 'v' and 'blocks'")
    if not _is_int(data["v"]):
        raise DesignVerificationError("'v' must be an integer")
    if not isinstance(data["blocks"], list):
        raise DesignVerificationError("'blocks' must be a list")
    return require_symmetric_design(
        data["v"], [tuple(_int_list(b, "each block")) for b in data["blocks"]])


def export_ads(a: AlmostDifferenceSet) -> str:
    """Canonical JSON for an almost difference set (byte-stable)."""
    return json.dumps({"n": a.n, "D": list(a.D)},
                      separators=(",", ":"), sort_keys=True) + "\n"


def import_ads(text: str) -> AlmostDifferenceSet:
    """Parse and classify an ADS JSON document; non-ADS content raises."""
    data = json.loads(text)
    if not isinstance(data, dict) or "n" not in data or "D" not in data:
        raise DesignParameterError("ADS document needs keys 'n' and 'D'")
    if not _is_int(data["n"]):
        raise DesignVerificationError("'n' must be an integer")
    result = classify_ads(_int_list(data["D"], "'D'"), data["n"])
    if isinstance(result, AdsReport):
        raise DesignVerificationError(result)
    return result
