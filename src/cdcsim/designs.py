"""Symmetric designs and almost difference sets.

Builders, brute-force verifiers, and JSON import/export for the two
combinatorial structures the schemes are built from: (v, t, lambda)
symmetric designs, and (n, k, lambda, mu) almost difference sets in Z_n
together with the check that their n translates D + r form a development.

Symmetric designs are stored canonically: each block ascending, the block
list sorted lexicographically.  Scheme takes either source itself and
develops an ADS, building its translates D + r in order r = 0..n-1.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .gf import is_prime

# The largest projective plane order built.  The verifier holds v masks of
# v bits, b^4 / 8 bytes: design --plane 101 peaks at about 60 MiB and
# takes about 1.2 s on a 2-vCPU VM.
MAX_PLANE_ORDER = 101

# Most differences, k(k - 1), an ADS classification counts: on the same VM
# design --ruzsa 1021 takes 0.36 s at 97 MiB, --ruzsa 2003 1.9 s at 341 MiB.
MAX_DIFFERENCES = 1 << 20


class DesignParameterError(ValueError):
    """Construction parameters outside what this library supports."""


class DesignViolation(NamedTuple):
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


class SymmetricDesign(NamedTuple):
    """(v, t, lam) symmetric design: v points, v blocks of size t."""

    v: int
    t: int
    lam: int
    blocks: Tuple[Tuple[int, ...], ...]


class AlmostDifferenceSet(NamedTuple):
    """k-subset D of Z_n whose difference function takes lam mu times.

    Over the n-1 nonzero shifts, diff_D takes the value lam exactly mu
    times and lam+1 the remaining n-1-mu times.
    """

    n: int
    k: int
    lam: int
    mu: int
    D: Tuple[int, ...]


class AdsReport(NamedTuple):
    """Why a subset is not an almost difference set."""

    n: int
    D: Tuple[int, ...]
    histogram: Tuple[Tuple[int, int], ...]
    message: str

    def __str__(self) -> str:
        hist = ", ".join(f"{value}:{count}" for value, count in self.histogram)
        return f"{self.message} (difference histogram {{{hist}}})"


class Development(NamedTuple):
    """An ADS checked by develop: the design of an ads Scheme."""

    source: AlmostDifferenceSet


def blocks_through(blocks: Sequence[Sequence[int]],
                   v: int) -> Tuple[Tuple[int, ...], ...]:
    """The transpose of an incidence: for each point x in [0, v), the ids
    of the blocks holding x, ascending.  Every point must lie in [0, v)."""
    through: List[List[int]] = [[] for _ in range(v)]
    for i, block in enumerate(blocks):
        for x in block:
            through[x].append(i)
    return tuple(map(tuple, through))


def _digits(packed: bytes, B: int) -> Sequence[int]:
    """The big-endian B-byte digits of packed, in order."""
    if B == 1:
        return packed
    return [int.from_bytes(packed[j:j + B], "big")
            for j in range(0, len(packed), B)]


def _first_unequal_meet(rows: Sequence[Sequence[int]],
                        columns: Sequence[Sequence[int]],
                        lam: int) -> Optional[Tuple[int, int, int]]:
    """The first (i, j, |rows[i] & rows[j]|), i < j in lexicographic order,
    whose meet is not lam; None when every meet is lam.

    R is the 0/1 matrix whose row i holds 1 at each column in rows[i];
    columns is its transpose (columns[c] = the rows holding c).  Each
    column is packed as one integer of len(rows) big-endian B-byte digits,
    digit j = 1 when row j holds c, with B the byte width of the longest
    row so no digit overflows.  Row i of R R^T is the sum of the packed
    columns row i holds, read back as bytes: digit j = |rows[i] & rows[j]|
    in bytes [j*B, (j+1)*B).  Each row's tail past the diagonal is
    compared with lam repeated; digits are decoded only in a row that
    differs.  A column is packed just before the first row holding it, so
    a check that fails early packs only the columns it has reached.
    At lam = 1, _first_pair_not_once gives the same answer from one bit
    per row instead of B bytes; this pass serves every other lam.
    """
    n = len(rows)
    B = max(1, (max(map(len, rows)).bit_length() + 7) // 8)
    packed = {}
    expected = lam.to_bytes(B, "big") * n
    for i, row in enumerate(rows):
        for c in row:
            if c not in packed:
                digits = bytearray(n * B)
                for j in columns[c]:
                    digits[j * B + B - 1] = 1
                packed[c] = int.from_bytes(digits, "big")
        gram_row = sum(packed[c] for c in row).to_bytes(n * B, "big")
        tail = gram_row[(i + 1) * B:]
        if tail != expected[:len(tail)]:
            for j, meet in enumerate(_digits(tail, B), i + 1):
                if meet != lam:
                    return i, j, meet
    return None


def _first_pair_not_once(rows: Sequence[Sequence[int]],
                         columns: Sequence[Sequence[int]]
                         ) -> Optional[Tuple[int, int, int]]:
    """_first_unequal_meet(rows, columns, 1), by bit masks.

    Each column c is packed as one len(rows)-bit mask, bit j set when row
    j holds c, just before the first row holding it.  For row i, the masks
    of the columns it holds fold into seen (the rows meeting row i at
    least once) and twice (at least twice); row i meets every later row
    exactly once when the bits past i of twice | ~seen are all zero.
    Otherwise the lowest such bit j is the first failing pair, and its
    meet is counted from the masks.
    """
    n = len(rows)
    full = (1 << n) - 1
    masks: List[Optional[int]] = [None] * len(columns)
    for i, row in enumerate(rows):
        seen = twice = 0
        for c in row:
            m = masks[c]
            if m is None:
                bits = bytearray((n + 7) // 8)
                for j in columns[c]:
                    bits[j >> 3] |= 1 << (j & 7)
                m = masks[c] = int.from_bytes(bits, "little")
            twice |= seen & m
            seen |= m
        off = (twice | (full ^ seen)) >> (i + 1)
        if off:
            j = i + (off & -off).bit_length()
            return i, j, sum(masks[c] >> j & 1 for c in row)
    return None


def verify_symmetric_design(
        v: int, blocks: Sequence[Sequence[int]]
) -> Union[SymmetricDesign, DesignViolation]:
    """Brute-force check of the symmetric-design invariants.

    With N the v x b point-by-block incidence matrix, a (v, t, lam)
    symmetric design has b = v and N N^T = N^T N = (t - lam) I + lam J.
    Checks, in order: well-formed blocks, block count = v, uniform block
    size t >= 2, and constant pair multiplicity lam (off the diagonal of
    N N^T).  The last reads lam from the pair (0, 1) and runs over the
    rows of points, the blocks through each point.  At lam = 1 each row
    folds the bit masks of its blocks (_first_pair_not_once); at any other
    lam it is one Gram pass, each Gram row one packed integer sum
    (_first_unequal_meet).  Either way a pair is decoded only where a row
    is off, and the first failing pair is the same.  Returns a
    SymmetricDesign (blocks canonically sorted) on success, otherwise a
    DesignViolation for the first failure.

    The rest of the definition follows from these checks.  A block holds
    t >= 2 points, so some pair lies in a block and lam >= 1.  Counting
    the pairs (y, block) with y != x in a block through point x gives
    r_x (t - 1) = lam (v - 1), so every replication r_x is equal; as
    sum r_x = v t, r_x = t and lam (v - 1) = t (t - 1).  If t > lam, then
    N N^T = (t - lam) I + lam J is nonsingular, and N J = J N = t J gives
    N^T N = N^-1 (N N^T) N = (t - lam) I + lam J: every two blocks meet
    in lam points (Ryser, Proc. AMS 1, 1950).  If t = lam, every block
    through a point holds every other point, so v = t and every block is
    the whole point set.
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

    through = blocks_through(normalized, v)
    lam = len(set(through[0]).intersection(through[1]))  # pair (0, 1) sets lam
    bad_pair = (_first_pair_not_once(through, normalized) if lam == 1
                else _first_unequal_meet(through, normalized, lam))
    if bad_pair is not None:
        x, y, count = bad_pair
        return DesignViolation(
            "pair-multiplicity", bad_pair,
            f"pair ({x},{y}) lies in {count} blocks, expected {lam}")

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
    lexicographic order: (0,0,1) is 0, (0,1,z) is 1 + z and (1,y,z) is
    1 + b + b*y + z.  Blocks collect the points on each line a.x = 0, and
    each line's points are named by index arithmetic:
    - a2 = 0: the line holds point 0 and the b points (0,1,z) (a = (1,0,0))
      or the b points (1,y,z) of one y (y = -a0/a1), a run of indices;
    - a2 != 0: the line is z = c0 + c1*y with c0 = -a0/a2, c1 = -a1/a2,
      holding (0,1,c1) and (1, y, c0 + c1*y) for each y.  For one c1, the
      b lines c0 = 0..b-1 are the columns of the rows (1, y, .) each
      rotated left by c1*y.
    Every entry is taken from one list of the v point ints, so a point is
    one int object however many lines hold it.  The blocks come out in
    canonical order, and the result is re-verified by brute force before
    being returned.  Orders above MAX_PLANE_ORDER are refused before any
    list is built.
    """
    if not is_prime(b):
        raise DesignParameterError(
            f"projective planes are built for prime orders only, got {b}")
    if b > MAX_PLANE_ORDER:
        raise DesignParameterError(
            f"projective planes are built up to order {MAX_PLANE_ORDER}, "
            f"got {b}")
    v = b * b + b + 1
    points = list(range(v))
    rows = [points[1 + b + b * y:1 + 2 * b + b * y] for y in range(b)]
    blocks = [tuple(points[:1 + b])] + [(points[0], *row) for row in rows]
    for c1 in range(b):
        rotated = [row[c1 * y % b:] + row[:c1 * y % b]
                   for y, row in enumerate(rows)]
        head = (points[1 + c1],)
        blocks.extend(head + line for line in zip(*rotated))
    design = verify_symmetric_design(v, blocks)
    if not isinstance(design, SymmetricDesign):
        raise AssertionError(f"plane construction for b={b} is broken: {design}")
    return design


def classify_ads(D: Sequence[int], n: int) -> Union[AlmostDifferenceSet, AdsReport]:
    """Classify D inside Z_n by its difference function.

    diff_D(x) = |D & (D + x)| counts the ordered pairs (a, b) of D with
    a - b = x mod n, so the histogram comes from the k(k-1) pairwise
    differences, every shift no difference hits counting as 0.
    Returns an AlmostDifferenceSet when diff_D takes exactly the two
    adjacent values {lam, lam+1} over nonzero shifts (mu = multiplicity of
    lam).  A constant difference function is the perfect-difference-set
    degenerate case, reported as (n, k, lam, n-1).  Anything else comes
    back as an AdsReport carrying the value histogram.  D must hold
    distinct elements of Z_n; a repeated or out-of-range element raises
    DesignVerificationError.
    """
    if n < 2:
        raise DesignParameterError(f"group order must be at least 2, got {n}")
    if len(D) == 0:
        raise DesignParameterError("D must be nonempty")
    ordered = tuple(sorted(D))
    outside = [d for d in ordered if not 0 <= d < n]
    if outside:
        raise DesignVerificationError(
            f"element {outside[0]} of D outside [0, {n})")
    if len(set(ordered)) != len(ordered):
        raise DesignVerificationError("repeated element in D")
    k = len(ordered)
    if k * (k - 1) > MAX_DIFFERENCES:
        raise DesignParameterError(f"k(k-1)={k * (k - 1)} > {MAX_DIFFERENCES}")
    diff = Counter((a - b) % n for a in ordered for b in ordered if a != b)
    counts = Counter(diff.values())
    if len(diff) < n - 1:
        counts[0] = n - 1 - len(diff)
    support = sorted(counts)
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


def _classified_as(D: Sequence[int], expected: Tuple[int, int, int, int],
                   what: str) -> AlmostDifferenceSet:
    """classify_ads(D, n), which must come out as an ADS with parameters
    expected = (n, k, lam, mu); anything else raises AssertionError
    naming what was classified, as what, and the expected parameters."""
    found = classify_ads(D, expected[0])
    if not isinstance(found, AlmostDifferenceSet) or \
            (found.n, found.k, found.lam, found.mu) != expected:
        raise AssertionError(
            f"{what} classifies as {found}, not as {expected}")
    return found


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
    if (p - 1) * (p - 2) > MAX_DIFFERENCES:
        raise DesignParameterError(f"p={p} gives k(k-1) > {MAX_DIFFERENCES}")
    g = smallest_primitive_root(p)
    n = p * (p - 1)
    inv_p = pow(p, -1, p - 1)
    inv_q = pow(p - 1, -1, p)
    D = []
    for i in range(1, p):
        a = i % (p - 1)
        b = pow(g, i, p)
        D.append((a * p * inv_p + b * (p - 1) * inv_q) % n)
    return _classified_as(D, (n, p - 1, 0, 2 * p - 3),
                          f"the construction for p={p}")


def complement_ads(a: AlmostDifferenceSet) -> AlmostDifferenceSet:
    """Complement Z_n minus D, an (n, n-k, n-2k+lam, mu) ADS."""
    dset = set(a.D)
    comp = [x for x in range(a.n) if x not in dset]
    return _classified_as(
        comp, (a.n, a.n - a.k, a.n - 2 * a.k + a.lam, a.mu),
        f"the complement of {(a.n, a.k, a.lam, a.mu)}")


def develop(a: AlmostDifferenceSet) -> Development:
    """Check that the n translates D + r of an ADS form a development;
    Scheme(a) runs this check, and its placement builds them.  Needs
    lam < k-1 so the translates are pairwise distinct and 1 <= mu <= n-2 so
    the result is a proper 1-design rather than a 2-design.  The pair (x, y)
    lies in the translates D + r with x - r and y - r in D, exactly
    diff_D(y - x) of them, so the pair census is the difference histogram:
    D is classified again, in O(k^2), and parameters other than a's raise
    AssertionError.  Then each point lies in k blocks, and no two
    translates are equal, since diff_D never reaches k.
    """
    if a.lam >= a.k - 1:
        raise DesignParameterError(
            f"develop needs lam < k-1 for distinct translates, "
            f"got lam={a.lam}, k={a.k}")
    if not 1 <= a.mu <= a.n - 2:
        raise DesignParameterError(
            f"degenerate mu={a.mu}: develop needs 1 <= mu <= {a.n - 2}")
    _classified_as(a.D, (a.n, a.k, a.lam, a.mu), "D")
    return Development(source=a)


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


# import_design stays in this module, not the package root:
# perfbench/replay.py imports it from here.
def import_design(text: str) -> SymmetricDesign:
    """Parse and verify a symmetric-design JSON document."""
    return design_from_doc(json.loads(text))


def design_from_doc(data) -> SymmetricDesign:
    """Verify a parsed symmetric-design document."""
    if not isinstance(data, dict) or "v" not in data or "blocks" not in data:
        raise DesignVerificationError(
            "design document needs keys 'v' and 'blocks'")
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


def ads_from_doc(data) -> AlmostDifferenceSet:
    """Classify a parsed ADS document; non-ADS content raises."""
    if not isinstance(data, dict) or "n" not in data or "D" not in data:
        raise DesignVerificationError("ADS document needs keys 'n' and 'D'")
    if not _is_int(data["n"]):
        raise DesignVerificationError("'n' must be an integer")
    result = classify_ads(_int_list(data["D"], "'D'"), data["n"])
    if isinstance(result, AdsReport):
        raise DesignVerificationError(result)
    return result
