"""Map/Reduce scheme construction on top of a design.

A Scheme fixes the file placement and reduce assignment for K nodes over N
files and Q output functions, and all of them follow from its design
alone.  Both constructions here use K = N = Q: the symmetric-design scheme
stores block B at node B and reduces the complement, the ADS scheme
stores and reduces translate D + r at node r.

Intermediate values are T-bit integers drawn from a keyed hash stream, so
every run is reproducible from (seed, T) alone and a centralized
evaluation is available as an oracle for the shuffle/decode pipeline.
"""

from __future__ import annotations

import math
from _blake2 import blake2b
from collections import deque
from collections.abc import Mapping
from functools import cached_property
from itertools import compress, product, repeat
from operator import itemgetter, not_, rshift
from typing import Callable, Dict, NamedTuple, Sequence, Tuple, Union

from .designs import Development, SymmetricDesign, blocks_through
from .gf import MAX_DEGREE, BinaryField


class SchemeParameterError(ValueError):
    """Scheme construction parameters outside what this library supports."""


class IncompleteRecoveryError(RuntimeError):
    """A reducer is missing an intermediate value it needs."""

    def __init__(self, node: int, q: int, n: int):
        super().__init__(
            f"node {node} cannot reduce output {q}: intermediate value "
            f"({q}, {n}) was neither stored nor recovered")
        self.node = node
        self.q = q
        self.n = n


class Scheme:
    """Placement and reduce assignment for one Map/Reduce run, all worked
    out from its design: a SymmetricDesign gives an sd scheme, a
    Development an ads one.  Node u stores block u, so K = N = Q = v or n
    and r = t or k; s is the size of a node's reduce set, its block's
    complement (sd, s = N - r) or its block (ads, s = r).  An sd scheme
    needs t > lam + 1, so that every node both sends and decodes coded
    signals.  Building one costs O(1) for either kind: the placement,
    reduce sets and incidence maps below are computed once, on first use,
    so choose_T can refuse a run before any translate or N^2 table exists.
    """

    def __init__(self, design: Union[SymmetricDesign, Development]):
        sd = isinstance(design, SymmetricDesign)
        if sd and design.t <= design.lam + 1:
            raise SchemeParameterError(
                f"need t > lam+1, got t={design.t}, lam={design.lam}")
        self.design = design
        self.kind = "sd" if sd else "ads"
        self.K = self.N = self.Q = design.v if sd else design.source.n
        self.r = design.t if sd else design.source.k
        self.s = self.N - self.r if sd else self.r

    @cached_property
    def placement(self) -> Tuple[Tuple[int, ...], ...]:
        """Files each node stores, ascending: block u (sd) or D + u (ads)."""
        if self.kind == "sd":
            return self.design.blocks
        n, D = self.N, self.design.source.D
        return tuple(tuple(sorted((d + u) % n for d in D)) for u in range(n))

    @cached_property
    def assignment(self) -> Tuple[Tuple[int, ...], ...]:
        """Outputs each node reduces, ascending: the files it lacks (sd)
        or the files it stores (ads)."""
        return self.lacking if self.kind == "sd" else self.placement

    @cached_property
    def lacking(self) -> Tuple[Tuple[int, ...], ...]:
        """Files each node does not store, ascending."""
        return tuple(tuple(sorted(set(range(self.N)).difference(b)))
                     for b in self.placement)

    @cached_property
    def point_blocks(self) -> Tuple[Tuple[int, ...], ...]:
        """Blocks (nodes) storing each file, in ascending block order."""
        return blocks_through(self.placement, self.N)

    @cached_property
    def pair_blocks(self) -> Dict[Tuple[int, int], Tuple[int, ...]]:
        """Blocks storing both files of each pair x < y, ascending.

        Pairs that share no block are absent.
        """
        pairs: Dict[Tuple[int, int], list] = {}
        for u, block in enumerate(self.placement):
            for i, x in enumerate(block):
                for y in block[i + 1:]:
                    pairs.setdefault((x, y), []).append(u)
        return {pair: tuple(us) for pair, us in pairs.items()}

    @cached_property
    def ads_groups(self) -> Tuple[Tuple[tuple, ...], Tuple[tuple, ...]]:
        """(keys, flags) of an ads scheme, independent of T, row by row:
        keys[q][n] is the memo key of the message group that carries
        v_{q,n}, and flags[q][n] is 1 when that group is a pair sum, else 0.

        A pair in a common block goes out as one pair sum, keyed by the
        pair's own tuple in pair_blocks, the same object in both rows; a
        pair in none (lam = 0 only) as a plain segment group per
        orientation, keyed (q, n).  The diagonal, v_{q,q}, is never
        shuffled: its key is None.
        """
        N = self.N
        keys = [[None] * N for _ in range(N)]
        flags = [[0] * N for _ in range(N)]
        for pair in self.pair_blocks:
            x, y = pair
            keys[x][y] = keys[y][x] = pair
            flags[x][y] = flags[y][x] = 1
        for q, row in enumerate(keys):
            for n in compress(range(N), map(not_, flags[q])):
                row[n] = (q, n)
            row[q] = None
        return tuple(map(tuple, keys)), tuple(map(tuple, flags))

    @cached_property
    def sd_groups(self) -> Tuple[Tuple[tuple, ...], ...]:
        """Each sd sender's coding groups, in wire order, independent of
        the bit width T: (message key, count, segments, keys, indices).

        Node u with block (x_0 < ... < x_{t-1}) codes the diagonal group,
        v_{x_j,x_j} at point j in t segments, then for each x of its block
        an off-diagonal group, v_{x,y} at point j (j the position of y
        among the others) in lam segments.  Member j is segment indices[j]
        of value keys[j], the one u holds: its position in the blocks
        through x, or through x and y.  A group of g members goes out as
        one message under key (u, tag, meta), meta () or (x,): its
        count = g - lam power sums, each T // segments bits wide.
        """
        t, lam = self.design.t, self.design.lam

        def group(u, tag, meta, segments, keys, holders):
            return ((u, tag, meta), len(keys) - lam, segments, tuple(keys),
                    tuple(blocks.index(u) for blocks in holders))

        table = []
        for u, block in enumerate(self.placement):
            groups = [group(u, "SD-diagonal", (), t,
                            [(x, x) for x in block],
                            [self.point_blocks[x] for x in block])]
            for x in block:
                others = [y for y in block if y != x]
                groups.append(group(
                    u, "SD-offdiagonal", (x,), lam,
                    [(x, y) for y in others],
                    [self.pair_blocks[min(x, y), max(x, y)] for y in others]))
            table.append(tuple(groups))
        return tuple(table)


def picker(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A function from a row to the tuple of its items at positions, in
    that order: itemgetter, except that one position or none still gives
    a tuple."""
    if len(positions) == 1:
        i, = positions
        return lambda row: (row[i],)
    return itemgetter(*positions) if positions else lambda row: ()


class ValueRows(Mapping):
    """Intermediate values held by rows and read by (q, n) as a Mapping:
    rows[i][j] is v_{q,n} for q = qs[i] and n = ns[j].  A read-only view,
    so it copies nothing; its keys run q-major in the order of qs and ns.
    """

    __slots__ = ("qs", "ns", "rows")

    def __init__(self, qs: Sequence[int], ns: Sequence[int],
                 rows: Sequence[Sequence[int]]):
        self.qs, self.ns, self.rows = qs, ns, rows

    def __getitem__(self, key):
        try:
            q, n = key
            return self.rows[self.qs.index(q)][self.ns.index(n)]
        except (TypeError, ValueError):  # no such q or n, or no pair
            raise KeyError(key) from None

    def __iter__(self):
        return product(self.qs, self.ns)

    def __len__(self):
        return len(self.qs) * len(self.ns)

    def __repr__(self):
        return f"ValueRows({dict(self.items())!r})"


class IVTable(NamedTuple):
    """All Q*N intermediate values of one run, each T bits, held by rows:
    rows[q][n] = v_{q,n}.  values reads the same rows by (q, n)."""

    T: int
    rows: Tuple[Tuple[int, ...], ...]

    @property
    def values(self) -> ValueRows:
        """The table as a read-only (q, n) Mapping over its rows."""
        rows = self.rows
        return ValueRows(range(len(rows)), range(len(rows[0]) if rows else 0),
                         rows)


class NodeView(NamedTuple):
    """The (q, n) pairs one node still needs to reduce."""

    node: int
    needed: frozenset


def build_scheme_sd(design: SymmetricDesign) -> Scheme:
    """Scheme(design) on a symmetric design: node B maps B, reduces its
    complement, so r = t and s = v - t.  Requires t > lam + 1."""
    return Scheme(design)


def build_scheme_ads(dev: Development) -> Scheme:
    """Scheme(dev) on an ADS development: node r maps and reduces block
    D + r, so r = s = k."""
    return Scheme(dev)


# (segment counts, power-sum codes as (segments, coding points))
_Rule = Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]

# Most intermediate values, Q*N, a run may draw.  Each is a Python int held
# in dicts by the IV table, the transcript and the decodes.  On 2 shared
# vCPUs under CPython 3.11, ruzsa 19 (116 964 values) runs in 7 s at
# 131 MiB max RSS and ruzsa 23 (256 036) in 21 s at 267 MiB.  At about
# 1 KiB a value, the 10^8 values of ruzsa 101 cannot fit in memory.
MAX_VALUES = 1 << 17

# Most bits, Q*N*T, the value table may hold: 64 MiB of value bits.  Max
# RSS grows by about 30 MiB per 10^8 bits, the table, its payloads and the
# joined groups together: the complement of ruzsa 11 at scale 1, 2, 4 and
# 5 (0.99 to 4.95 * 10^8 bits) runs at 217, 235, 307 and 336 MiB, in 3.4
# to 5.7 s.  The complement of ruzsa 13 at scale 1 (4.3 * 10^8 bits, but
# 1.6 * 10^6 messages) runs in 11 s at 646 MiB; at scale 64 it would hold
# 2.7 * 10^10 bits (3.2 GiB).  Same machine as MAX_VALUES.
MAX_VALUE_BITS = 1 << 29

# Most shuffle messages, message_count(s), a run may send.  Each holds
# about 330 bytes through the run (the message, its key, its payload and
# its share of the transcript's list and index), and they set most of
# the memory of a high-lam ADS run.  Under a 2 GiB RLIMIT_AS, same machine
# as MAX_VALUES: the complement of ruzsa 11 (544 500 messages, 10^8 bits)
# runs in 2.6 s at 208 MiB max RSS, that of ruzsa 13 (1 606 176 messages,
# 4.3 * 10^8 bits) in 8.2 s at 640 MiB; by that slope 2^21 messages with
# MAX_VALUE_BITS bits come to about 830 MiB.  The complement of ruzsa 17
# would send 8.9 * 10^6.
MAX_MESSAGES = 1 << 21


def message_count(s: Scheme) -> int:
    """Shuffle messages of one run, from the design's parameters alone.

    An sd node sends its diagonal group and one group per file of its
    block: K (t + 1).  An ads pair sends one message per common block,
    K C(k, 2) in all, and when lam = 0 each of the C(N, 2) - K C(k, 2)
    pairs in no common block sends k plain segments per orientation.
    """
    if s.kind == "sd":
        return s.K * (s.design.t + 1)
    k, lam = s.design.source.k, s.design.source.lam
    sums = s.K * math.comb(k, 2)
    return sums if lam else sums + 2 * k * (math.comb(s.N, 2) - sums)


def _rule(s: Scheme) -> _Rule:
    """(segment counts, power-sum codes) that constrain the bit width T.

    Every segment count must divide T.  A code (segments, points) works
    over GF(2^(T/segments)) and needs at least points elements there.
    The sd scheme on a (v, t, lam) design cuts diagonal values into t
    segments, coded at t points over GF(2^(T/t)), and off-diagonal ones
    into lam segments, coded at t - 1 points over GF(2^(T/lam)).  The
    ADS scheme does not code: it cuts a pair into its lam or lam + 1
    common blocks or, when lam = 0, a value into k plain segments.
    """
    if s.kind == "sd":
        t, lam = s.design.t, s.design.lam
        return (t, lam), ((t, t), (lam, t - 1))
    lam, k = s.design.source.lam, s.design.source.k
    return ((lam, lam + 1) if lam >= 1 else (k,)), ()


def _check_T(rule: _Rule, T: int) -> None:
    if not isinstance(T, int) or T < 1:
        raise SchemeParameterError(f"T must be a positive integer, got {T}")
    counts, codes = rule
    if any(T % c for c in counts):
        raise SchemeParameterError(
            f"T={T} must be divisible by each of {counts}")
    for segments, points in codes:
        degree = T // segments
        # FieldError past gf.MAX_DEGREE, before 2 ** degree can grow huge
        BinaryField(degree)
        if 2 ** degree < points:
            raise SchemeParameterError(
                f"T={T} gives only {2 ** degree} coefficients for "
                f"{points}-point encoding")


def choose_T(s: Scheme, scale: int = 1) -> int:
    """Smallest bit width every segment count divides, times scale.

    The one check that sizes or refuses a run, from the design's
    parameters alone: it reads no table of the scheme.  For the
    symmetric-design scheme the width must also give each of the two
    binary extension fields enough distinct coefficients for its coding
    points (FieldError past gf.MAX_DEGREE).  The width may not pass
    MAX_DEGREE times the least common multiple of the segment counts, so
    an ADS scale is at most 64, the Q*N value table may hold at most
    MAX_VALUES values of MAX_VALUE_BITS bits in all, and the shuffle may
    send at most MAX_MESSAGES messages; past any of these
    SchemeParameterError is raised before any value is drawn.
    """
    if not isinstance(scale, int) or scale < 1:
        raise SchemeParameterError(f"scale must be a positive integer, got {scale}")
    rule = _rule(s)
    counts, codes = rule
    base = math.lcm(*counts)
    T = base
    while any(2 ** (T // segments) < points for segments, points in codes):
        T += base
    T *= scale
    _check_T(rule, T)
    if T > MAX_DEGREE * base:  # implied for sd by the field checks
        raise SchemeParameterError(
            f"T={T} exceeds {MAX_DEGREE * base} bits, {MAX_DEGREE} times "
            f"the lcm {base} of the segment counts {counts}")
    if s.Q * s.N > MAX_VALUES:
        raise SchemeParameterError(
            f"Q*N={s.Q * s.N} intermediate values exceed {MAX_VALUES}")
    if s.Q * s.N * T > MAX_VALUE_BITS:
        raise SchemeParameterError(
            f"Q*N*T={s.Q * s.N * T} bits of intermediate values exceed "
            f"{MAX_VALUE_BITS}")
    if message_count(s) > MAX_MESSAGES:
        raise SchemeParameterError(
            f"{message_count(s)} shuffle messages exceed {MAX_MESSAGES}")
    return T


def generate_ivs(s: Scheme, seed: int, T: int) -> IVTable:
    """Deterministic T-bit intermediate values for all (q, n) pairs, as
    rows: rows[q][n] = v_{q,n}, drawn q-major.

    Value (q, n) is the top T bits of the BLAKE2b digests, keyed by seed,
    of q, n and a counter 0, 1, ..., each an 8-byte big-endian word, one
    512-bit digest per counter, so T <= 512 takes a single digest.  The
    keyed state, the words and the shift are made once per table, and a
    row is drawn by C-level maps: one copy of the keyed state per digest,
    fed its message, then each value's digests joined in counter order
    (a single digest joins to itself) and read as one integer.  blake2b
    comes from the builtin _blake2, the object hashlib.blake2b names, so
    a run never loads hashlib or OpenSSL's _hashlib.
    """
    if not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
        raise SchemeParameterError(f"seed must be in [0, 2^64), got {seed}")
    _check_T(_rule(s), T)
    keyed = blake2b(key=seed.to_bytes(8, "big"))
    count = -(-T // 512)  # digests per value
    shift, from_bytes = 512 * count - T, int.from_bytes
    words = [i.to_bytes(8, "big") for i in range(max(s.Q, s.N, count))]
    # (n, counter) for each digest of a row, value-major
    suffixes = [n + counter for n in words[:s.N] for counter in words[:count]]

    def row(word: bytes) -> Tuple[int, ...]:
        hashes = list(map(blake2b.copy, repeat(keyed, len(suffixes))))
        deque(map(blake2b.update, hashes, map(word.__add__, suffixes)), 0)
        digests = map(blake2b.digest, hashes)
        # joining whole values: growing bytes would be quadratic
        return tuple(map(rshift, map(from_bytes, map(b"".join, zip(
            *[digests] * count)), repeat("big")), repeat(shift)))

    return IVTable(T=T, rows=tuple(map(row, words[:s.Q])))


def node_view(s: Scheme, node: int) -> NodeView:
    """Needed (q, n) pairs for one node: assignment x lacking."""
    if not 0 <= node < s.K:
        raise SchemeParameterError(f"node {node} outside [0, {s.K})")
    return NodeView(node=node, needed=frozenset(
        (q, n) for q in s.assignment[node] for n in s.lacking[node]))


def centralized_outputs(s: Scheme, ivs: IVTable) -> Dict[int, int]:
    """Oracle reduce: every output folded over its full row."""
    out = {}
    for q, row in enumerate(ivs.rows):
        acc = 0
        for value in row:
            acc ^= value
        out[q] = acc
    return out


def recovered_rows(s: Scheme, node: int,
                   got: Mapping) -> Tuple[Tuple[int, ...], ...]:
    """What node recovered, as one row per q of s.assignment[node], in
    that order, over n in s.lacking[node].

    A ValueRows over exactly those outputs and files gives its own rows;
    any other (q, n) Mapping is read value by value, and the first
    missing (q, n), q in assignment order and n ascending, raises
    IncompleteRecoveryError.  Keys beyond those are not read.
    """
    assigned, lacking = s.assignment[node], s.lacking[node]
    if isinstance(got, ValueRows) and got.qs == assigned and \
            got.ns == lacking:
        return got.rows
    rows = []
    for q in assigned:
        row = []
        for n in lacking:
            try:
                row.append(got[q, n])
            except KeyError:
                raise IncompleteRecoveryError(node, q, n) from None
        rows.append(tuple(row))
    return tuple(rows)


def reduce_outputs(s: Scheme, ivs: IVTable,
                   recovered: Dict[int, Mapping]) -> Dict[int, Dict[int, int]]:
    """Reduce each node of recovered from its stored plus recovered
    intermediate values; nodes absent from recovered are not reduced.

    Output q folds the table row q at the node's stored files, the only
    table entries it reads, with the row of q it recovered
    (recovered_rows: IncompleteRecoveryError names the first value
    missing).
    """
    table = ivs.rows
    out: Dict[int, Dict[int, int]] = {}
    for node, got in recovered.items():
        stored = picker(s.placement[node])
        results = {}
        for q, row in zip(s.assignment[node], recovered_rows(s, node, got)):
            acc = 0
            for value in stored(table[q]):
                acc ^= value
            for value in row:
                acc ^= value
            results[q] = acc
        out[node] = results
    return out


def scheme_to_json(s: Scheme) -> str:
    """Canonical JSON description of a scheme (byte-stable)."""
    import json

    if s.kind == "sd":
        params = {"v": s.design.v, "t": s.design.t, "lam": s.design.lam}
    else:  # n, k, lam, mu and D, a JSON list
        params = s.design.source._asdict()
    doc = {
        "kind": s.kind, "K": s.K, "N": s.N, "Q": s.Q, "r": s.r, "s": s.s,
        "params": params,
        "placement": [list(b) for b in s.placement],
        "assignment": [list(b) for b in s.assignment],
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
