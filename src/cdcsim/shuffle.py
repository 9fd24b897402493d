"""Shuffle-phase encoding, decoding, and load measurement.

Node k stores the files of its block: value (q, n) is its own iff file
n is stored, and only own values are read from the table.  It needs
(q, n) iff q is assigned to it and n is in Scheme.lacking[k].  Decoders
apply this rule row by row, never building a set of pairs: each returns a
ValueRows whose row i holds v_{q,n} for q = assignment[k][i] over n in
lacking[k], and the value table is held by rows, IVTable.rows[q][n].

Bit conventions used throughout:

* An intermediate value is a T-bit integer.  split_bits cuts it into equal
  segments most-significant-first, so segment 0 is the top slice and
  join_bits reassembles in the same order.
* Whenever a value is segmented across the blocks containing a point (or a
  pair of points), segment indices follow the ascending block-id order of
  that block list.  Senders and receivers read the same lists from the
  scheme's incidence maps, so no index metadata travels on the wire.

Symmetric-design scheme: node u holds block B_u = (x_0 < ... < x_{t-1}).
Each v_{x,x} splits into t segments over the blocks through x, and each
v_{x,y} (x != y) into lam segments over the blocks through both points.
One table per scheme, Scheme.sd_groups, lists every sender's coding
groups for encoder and decoder alike, independent of T: the diagonal
group (v_{x_j,x_j} at point j of GF(2^(T/t))) and, for each local file
x, an off-diagonal group (v_{x,y} at point j of GF(2^(T/lam)), j the
position of y among the others), each member being the segment u holds.
A group of g members goes out as one message, the g - lam power sums
sum_j j^p * seg_j packed as lanes of its payload, lane p lowest first.
The GF(2^m) arithmetic runs on gf's packed bit matrices, by XORs alone:
power_sum_plan maps a segment to its packed sums, solve_plan maps packed
sums to the packed unknowns.  A receiver reads a group with one lookup,
cuts each local segment it needs with a shift and a mask, XORs its terms
out of the payload and is left with a square power-sum system at
distinct points; solved segments are in range by construction and are
placed into the values with shifts.  The decodes of a transcript share
its memo of solved systems, keyed by (width, unknown points, the
receiver's own packed right-hand side): receivers lacking the same
points of a group pose the same system and solve it once, in any node
order, and none ever reads another node's values.

ADS scheme: one encoder, shuffle_ads, serves every lam.  A pair x < y lies
in c common blocks, c = lam or lam + 1.  When c >= 1 the pair shares both
orientations through them, the j-th common block sending the j-th T/c-bit
segment of v_{x,y} ^ v_{y,x}.  When c = 0 (only when lam = 0) each
orientation goes out as k plain T/k-bit segments, one per block through
the file.  Splitting commutes with XOR, so joining a pair's payloads gives
v_{x,y} ^ v_{y,x} whole, and a node holding one orientation unmasks the
other with one XOR.  The transcript's memo holds each joined message
group inside one scope entry keyed by (T, the scheme's placement), which
fix every group's senders and segment widths: a pair sum under its pair
(x, y), a plain segment group under its orientation (q, n).  Each group
is read and joined once per transcript, on the first decode that needs
it, and the memo holds nothing but transcript bits.  Scheme.ads_groups
gives each row's memo keys, so a decode recovers a whole row of values
from the memo and its own values with C-level maps.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, filterfalse, repeat
from operator import itemgetter, mul, xor
from typing import Iterable, Iterator, List, NamedTuple, Tuple

from .gf import (FieldError, apply_plan, power_sum_plan, solve_plan,
                 unpack_lanes)
from .scheme import (IVTable, Scheme, SchemeParameterError, ValueRows,
                     centralized_outputs, generate_ivs, picker,
                     recovered_rows, reduce_outputs)


class MissingMessageError(RuntimeError):
    """A decoder did not find a message it relies on."""

    def __init__(self, node: int, key: Tuple):
        super().__init__(f"node {node} is missing message {key}")
        self.node = node
        self.key = key


class Message(NamedTuple):
    """One multicast, one sender's whole share of one coding group: sender
    node, routing tag and meta, payload of bits bits."""

    sender: int
    tag: str
    meta: Tuple[int, ...]
    bits: int
    payload: int


_message_key = itemgetter(0, 1, 2)  # (sender, tag, meta)
_sender, _tag, _meta, _message_bits, _payload = map(itemgetter, range(5))


class Transcript:
    """All shuffle messages of one run, given in any order and kept in the
    canonical one: sorted by their (sender, tag, meta) keys.

    No two messages share a key; by_key maps each key to its message, and
    total_bits sums their bits.  Both come from passes that run in C over
    the sorted messages, the one full-length list kept beside by_key and
    never copied, since a second copy holds its own pointer per message;
    messages given in canonical order sort in one linear pass.  memo
    starts empty and is shared by every decode of the transcript; each
    entry's key names all it depends on beyond the messages, so any
    caller may decode the nodes in any order.
    """

    def __init__(self, messages: Iterable[Message]):
        # distinct keys never tie, so whole messages sort by their keys
        ordered = sorted(messages)
        by_key = dict(zip(map(_message_key, ordered), ordered))
        if len(by_key) < len(ordered):  # equal keys sort side by side
            key = next(_message_key(a) for a, b in zip(ordered, ordered[1:])
                       if _message_key(a) == _message_key(b))
            raise ValueError(f"two messages share the key {key}")
        self.messages = ordered
        self.total_bits = sum(map(_message_bits, ordered))
        self.by_key = by_key
        self.memo: dict = {}


def split_bits(value: int, width: int, parts: int) -> List[int]:
    """Cut a width-bit value into parts equal slices, most significant first."""
    if parts < 1 or width % parts:
        raise ValueError(f"cannot split {width} bits into {parts} parts")
    if not 0 <= value < 1 << width:
        raise ValueError(f"value does not fit in {width} bits")
    w = width // parts
    mask = (1 << w) - 1
    return [(value >> (w * (parts - 1 - j))) & mask for j in range(parts)]


def join_bits(parts: Iterable[int], width: int) -> int:
    """Inverse of split_bits: concatenate width-bit slices, first on top."""
    out = 0
    for part in parts:
        if not 0 <= part < 1 << width:
            raise ValueError(f"segment does not fit in {width} bits")
        out = (out << width) | part
    return out


def shuffle_sd(s: Scheme, ivs: IVTable) -> Transcript:
    """Coded shuffle for the symmetric-design scheme."""
    if s.kind != "sd":
        raise SchemeParameterError(f"expected an sd scheme, got {s.kind}")
    T, table = ivs.T, ivs.rows
    messages = []
    for groups in s.sd_groups:
        for (u, tag, meta), count, segments, keys, indices in groups:
            width = T // segments
            mask = (1 << width) - 1
            sums = 0  # lane p holds power sum p
            for j, ((q, n), i) in enumerate(zip(keys, indices)):
                segment = table[q][n] >> (segments - 1 - i) * width & mask
                sums ^= apply_plan(power_sum_plan(width, j, count), segment)
            messages.append(Message(sender=u, tag=tag, meta=meta,
                                    bits=count * width, payload=sums))
    return Transcript(messages)


def decode_sd(s: Scheme, node: int, transcript: Transcript,
              ivs: IVTable) -> ValueRows:
    """Recover every intermediate value node needs, from messages alone,
    as rows over s.assignment[node] x s.lacking[node]: both are the files
    the node lacks.

    An sd node reduces the complement of its block, so it reads another
    sender's group iff some member's q is not stored (t > lam + 1 then
    leaves a member whose n is not stored too); the members whose n is
    not stored are the unknowns it needs.  Subtracting its own terms
    from the group's one payload, lane p holding sum p, leaves a square
    power-sum system.  The payload must lie in [0, 2^(count * width)),
    else FieldError: apply_plan would drop the bits past the last lane
    and misread a negative payload.

    The transcript's memo holds those systems' solutions, keyed by
    (width, unknown points, this node's packed right-hand side), so the
    decodes of one transcript solve each distinct system once.  A node
    only ever reuses the solution of the very system its own sums pose:
    what another node read never enters.
    """
    if s.kind != "sd":
        raise SchemeParameterError(f"expected an sd scheme, got {s.kind}")
    T, table, solved = ivs.T, ivs.rows, transcript.memo
    by_key, stored = transcript.by_key, set(s.placement[node])
    lacking = s.lacking[node]
    at = {n: i for i, n in enumerate(lacking)}  # row and column positions
    rows = [[None] * len(lacking) for _ in lacking]
    for u, groups in enumerate(s.sd_groups):
        if u == node:
            continue
        for message_key, count, segments, keys, indices in groups:
            if all(q in stored for q, _ in keys):
                continue
            width = T // segments
            mask = (1 << width) - 1
            message = by_key.get(message_key)
            if message is None:
                raise MissingMessageError(node, message_key)
            rhs = message.payload
            if not 0 <= rhs < 1 << count * width:
                raise FieldError(f"the payload of {message_key} is outside "
                                 f"[0, 2^{count * width})")
            unknown = []
            for j, (q, n) in enumerate(keys):
                if n in stored:
                    rhs ^= apply_plan(
                        power_sum_plan(width, j, count),
                        table[q][n] >> (segments - 1 - indices[j]) * width
                        & mask)
                else:
                    unknown.append(j)
            system = (width, tuple(unknown), rhs)
            solution = solved.get(system)
            if solution is None:
                solution = solved[system] = tuple(unpack_lanes(
                    apply_plan(solve_plan(width, system[1]), rhs), width,
                    len(unknown)))
            for j, segment in zip(unknown, solution):
                q, n = keys[j]
                row, i = rows[at[q]], at[n]
                if segments == 1:  # one segment per value: it is the value
                    row[i] = segment
                else:
                    row[i] = (row[i] or 0) | segment << (
                        segments - 1 - indices[j]) * width
    return ValueRows(lacking, lacking, tuple(map(tuple, rows)))


def shuffle_ads(s: Scheme, ivs: IVTable) -> Transcript:
    """Shuffle for an ADS scheme.

    A pair of files in c >= 1 common blocks exchanges both orientations
    through them: the j-th common block sends the XOR of the j-th T/c-bit
    segments.  A pair in no common block (possible only when lam = 0)
    falls back to plain segments, the i-th block through the file sending
    the i-th T/k-bit segment of each orientation.  A pair in any other
    number of blocks is no ADS development: SchemeParameterError.  A
    value cut into two or more segments must lie in [0, 2^T), else
    ValueError, as split_bits checks it.

    Each sender's messages are collected in key order, pair sums by pair
    and then plain segments by orientation, so the transcript's sort
    finds them already in canonical order.  A segment is cut with one
    shift and mask, and each Message is built by tuple.__new__, which
    runs no Python frame (Message(...) runs the namedtuple's __new__).
    """
    if s.kind != "ads":
        raise SchemeParameterError(f"expected an ads scheme, got {s.kind}")
    lam, k = s.design.source.lam, s.design.source.k
    T, table, pairs = ivs.T, ivs.rows, s.pair_blocks
    new, top = tuple.__new__, 1 << T
    sent: List[List[Message]] = [[] for _ in range(s.K)]
    plain = []  # the orientations of the pairs in no common block
    for x, row in enumerate(table):
        for y in range(x + 1, s.N):
            common = pairs.get((x, y), ())
            c = len(common)
            if c not in (lam, lam + 1):
                raise SchemeParameterError(
                    f"pair ({x},{y}) lies in {c} blocks, expected "
                    f"{lam} or {lam + 1}")
            if c == 1:  # one segment: the pair sum itself
                u, = common
                sent[u].append(new(Message, (
                    u, "ADS-pairsum", (x, y, 0), T, row[y] ^ table[y][x])))
            elif c:
                value, width = row[y] ^ table[y][x], T // c
                if not 0 <= value < top:
                    raise ValueError(f"value does not fit in {T} bits")
                mask = (1 << width) - 1
                for j, u in enumerate(common):
                    sent[u].append(new(Message, (
                        u, "ADS-pairsum", (x, y, j), width,
                        value >> T - (j + 1) * width & mask)))
            else:
                plain += (x, y), (y, x)
    plain.sort()
    width = T // k
    mask = (1 << width) - 1
    for q, n in plain:
        value = table[q][n]
        if not 0 <= value < top:
            raise ValueError(f"value does not fit in {T} bits")
        for i, u in enumerate(s.point_blocks[n]):
            sent[u].append(new(Message, (
                u, "ADS-segment", (q, n, i), width,
                value >> T - (i + 1) * width & mask)))
    messages = chain.from_iterable(sent)
    del sent  # freed once the sort drains it, before by_key is built
    return Transcript(messages)


# the names of the former lam-specific encoders, for callers that import them
shuffle_ads_pos = shuffle_ads_golomb = shuffle_ads


def decode_ads(s: Scheme, node: int, transcript: Transcript,
               ivs: IVTable) -> ValueRows:
    """Recover every intermediate value node needs in an ADS scheme, as
    rows over s.assignment[node] x s.lacking[node].

    An ADS node reduces its own block, so for each (q, n) the opposite
    orientation (n, q) is its own, the only value read from the table:
    the joined pair-sum payloads of a pair are v_{q,n} ^ v_{n,q},
    unmasked with it; segment messages join to the value itself.  A row
    q is recovered whole: its memo keys and pair-sum flags are picked out
    of Scheme.ads_groups at the lacking files, its own values out of
    column q of their table rows (the node's own columns are transposed
    out of those rows once), and the two XORed by C-level maps, each own
    value times its 0/1 flag.

    The transcript's memo holds each joined message group once, in one
    scope entry keyed by (T, s.placement): a pair sum under its pair
    (x, y), x < y, and a plain segment group under its orientation
    (q, n).  The placement fixes which groups exist and their senders,
    and T their segment widths, so the decodes of one transcript read
    each message once.  A group is joined when a row first needs it, in
    row order: a group of one sender (every pair sum when lam = 0) is
    that sender's payload, checked to lie in [0, 2^T) as join_bits
    checks a segment, and a larger group is join_bits of its payloads.
    So a missing message or a payload too wide for its segment reaches
    only the nodes that read it.  The memo holds only transcript bits,
    never a node's stored values.
    """
    if s.kind != "ads":
        raise SchemeParameterError(f"expected an ads scheme, got {s.kind}")
    T, table, by_key = ivs.T, ivs.rows, transcript.by_key
    through, pairs = s.point_blocks, s.pair_blocks
    joined = transcript.memo.setdefault((T, s.placement), {})
    keys, flags = s.ads_groups
    assigned, lacking = s.assignment[node], s.lacking[node]
    pick, top = picker(lacking), 1 << T
    # the own values v_{n,q}: column q of the lacking files' rows, per q
    columns = zip(*map(picker(assigned), pick(table)))

    def join(key):
        senders = pairs.get(key)
        tag = "ADS-pairsum"
        if senders is None:
            tag, senders = "ADS-segment", through[key[1]]
        try:
            if len(senders) > 1:
                return join_bits([by_key[u, tag, key + (j,)].payload
                                  for j, u in enumerate(senders)],
                                 T // len(senders))
            payload = by_key[senders[0], tag, key + (0,)].payload
        except KeyError as missing:  # the first key with no message
            raise MissingMessageError(node, missing.args[0]) from None
        if not 0 <= payload < top:  # join_bits' check of its one segment
            raise ValueError(f"segment does not fit in {T} bits")
        return payload

    rows = []
    for q, column in zip(assigned, columns):
        row_keys = pick(keys[q])
        try:
            sums = tuple(map(joined.__getitem__, row_keys))
        except KeyError:  # join the row's new groups, in row order
            for key in filterfalse(joined.__contains__, row_keys):
                joined[key] = join(key)
            sums = map(joined.__getitem__, row_keys)
        rows.append(tuple(map(xor, sums, map(mul, pick(flags[q]), column))))
    return ValueRows(assigned, lacking, tuple(rows))


def decode_all(s: Scheme, transcript: Transcript, ivs: IVTable,
               ) -> Iterator[Tuple[int, ValueRows]]:
    """Decode node 0, 1, ..., K - 1 in turn with the decoder of the scheme
    kind, yielding (node, recovered); the decodes share the transcript's
    memo."""
    decode = decode_sd if s.kind == "sd" else decode_ads
    for node in range(s.K):
        yield node, decode(s, node, transcript, ivs)


def measure_load(s: Scheme, transcript: Transcript, T: int) -> Fraction:
    """Communication load: total shuffle bits over Q*N*T."""
    return Fraction(transcript.total_bits, s.Q * s.N * T)


class RunResult(NamedTuple):
    """One simulated run: the values, the wire traffic and the verdict."""

    ivs: IVTable
    transcript: Transcript
    decode_ok: bool
    load: Fraction


def run(s: Scheme, seed: int, T: int) -> RunResult:
    """Simulate one scheme end to end on T-bit values drawn from seed.

    Shuffles with the encoder of the scheme kind, decodes at every node
    and reduces.  decode_ok holds when every node recovered exactly the
    values it needs, each equal to the table, and every reduce output
    matches the centralized oracle.  A node's decode is checked row by
    row: recovered_rows gives a row per assigned output, raising
    IncompleteRecoveryError for the first value missing, and the rows
    must equal the table rows picked at the lacking files, with no key
    beyond them.  The transcript comes back with an empty memo, so the
    decodes' shared work is freed once they end.
    """
    ivs = generate_ivs(s, seed, T)
    transcript = (shuffle_sd if s.kind == "sd" else shuffle_ads)(s, ivs)
    oracle = centralized_outputs(s, ivs)
    table = ivs.rows
    decode_ok = True
    for node, got in decode_all(s, transcript, ivs):
        assigned, lacking = s.assignment[node], s.lacking[node]
        rows = recovered_rows(s, node, got)
        exact = len(got) == len(assigned) * len(lacking) and rows == tuple(
            map(picker(lacking), map(table.__getitem__, assigned)))
        decode_ok &= exact and reduce_outputs(
            s, ivs, {node: got})[node].items() <= oracle.items()
        del got, rows  # hold one node's decode at a time
    transcript.memo.clear()  # callers keep the transcript, not the solves
    return RunResult(ivs=ivs, transcript=transcript, decode_ok=decode_ok,
                     load=measure_load(s, transcript, T))


class _LineTemplates(dict):
    """The %-template of a transcript line by its shape (tag, meta
    length, bits), made on first use: the bytes of json.dumps(...,
    separators=(",", ":"), sort_keys=True) with meta, payload and sender
    left as fields."""

    def __missing__(self, shape):
        tag, length, bits = shape
        meta = ",".join(["%d"] * length)
        tag = json.dumps(tag).replace("%", "%%")
        self[shape] = (f'{{"bits":{bits},"meta":[{meta}],"payload":"%s",'
                       f'"sender":%d,"tag":{tag}}}\n')
        return self[shape]


_CHUNK = 256  # most lines in one piece of transcript text


def transcript_chunks(transcript: Transcript) -> Iterator[str]:
    """The transcript as JSON lines, one message per line, in pieces of at
    most _CHUNK whole lines, each one %-format: its lines' templates
    joined, applied to all their fields at once.  A payload is written
    as its ceil(bits / 8) big-endian bytes in hex, by int.to_bytes, so a
    negative payload or one too wide for them raises OverflowError.
    """
    templates, messages = _LineTemplates(), transcript.messages
    for start in range(0, len(messages), _CHUNK):
        chunk = messages[start:start + _CHUNK]
        bits = list(map(_message_bits, chunk))
        size = {b: (b + 7) // 8 for b in set(bits)}
        payloads = map(bytes.hex, map(int.to_bytes, map(_payload, chunk),
                                      map(size.__getitem__, bits),
                                      repeat("big")))
        fields = chain.from_iterable(chain.from_iterable(zip(
            map(_meta, chunk), zip(payloads, map(_sender, chunk)))))
        yield "".join(map(templates.__getitem__, zip(
            map(_tag, chunk), map(len, map(_meta, chunk)), bits))) % tuple(
            fields)


def transcript_lines(transcript: Transcript) -> Iterator[str]:
    """One canonical JSON object per message, in transcript order, each
    line ending in a newline: transcript_chunks cut at their newlines,
    their only line breaks, as json.dumps escapes every control and
    non-ASCII character."""
    return chain.from_iterable(map(str.splitlines, transcript_chunks(
        transcript), repeat(True)))


def transcript_to_jsonl(transcript: Transcript) -> str:
    """The whole transcript as JSON lines, one message per line."""
    return "".join(transcript_chunks(transcript))
