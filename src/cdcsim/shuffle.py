"""Shuffle-phase encoding, decoding, and load measurement.

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
One description, _sd_groups, lists node u's coding groups for encoder and
decoder alike: the diagonal group (v_{x_j,x_j} at point j of GF(2^(T/t)))
and, for each local file x, an off-diagonal group (v_{x,y} at point j of
GF(2^(T/lam)), j the position of y among the others), each member being
the segment u holds.  A group of g members goes out as the g - lam power
sums sum_j j^p * seg_j, p = 0..g-lam-1.  A receiver subtracts the terms it
can compute locally and is left with a square power-sum system at
distinct points.  run() gives the decodes of all nodes one memo of solved
systems, keyed by (width, unknown points, the receiver's own right-hand
sides): receivers lacking the same points of a group pose the same system
and solve it once, and none ever reads another node's values.

ADS scheme: one encoder, shuffle_ads, serves every lam.  A pair x < y lies
in c common blocks, c = lam or lam + 1.  When c >= 1 the pair shares both
orientations through them, the j-th common block sending the j-th T/c-bit
segment of v_{x,y} ^ v_{y,x}.  When c = 0 (only when lam = 0) each
orientation goes out as k plain T/k-bit segments, one per block through
the file.  Splitting commutes with XOR, so joining a pair's payloads gives
v_{x,y} ^ v_{y,x} whole, and a node holding one orientation unmasks the
other with one XOR.  run() gives the decodes of all nodes one memo of
joined message groups, keyed by ("ADS-pairsum", x, y) or
("ADS-segment", q, n): each group is read and joined once per run, and
the memo holds nothing but transcript bits.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .gf import BinaryField, solve_power_sums
from .scheme import (IVTable, Scheme, SchemeParameterError,
                     centralized_outputs, generate_ivs, node_view,
                     reduce_outputs)


class MissingMessageError(RuntimeError):
    """A decoder did not find a message it relies on."""

    def __init__(self, node: int, key: Tuple):
        super().__init__(f"node {node} is missing message {key}")
        self.node = node
        self.key = key


@dataclass(frozen=True, slots=True)
class Message:
    """One multicast: sender node, routing tag and meta, payload of bits bits."""

    sender: int
    tag: str
    meta: Tuple[int, ...]
    bits: int
    payload: int


@dataclass(frozen=True)
class Transcript:
    """All shuffle messages of one run, canonically ordered.

    No two messages share a (sender, tag, meta) key; by_key maps each key
    to its message.
    """

    messages: Tuple[Message, ...]
    total_bits: int
    by_key: Dict[Tuple, Message] = field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        by_key = {}
        for m in self.messages:
            key = (m.sender, m.tag, m.meta)
            if key in by_key:
                raise ValueError(f"two messages share the key {key}")
            by_key[key] = m
        object.__setattr__(self, "by_key", by_key)


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


def _finish(messages: List[Message]) -> Transcript:
    ordered = tuple(sorted(messages, key=lambda m: (m.sender, m.tag, m.meta)))
    return Transcript(messages=ordered,
                      total_bits=sum(m.bits for m in ordered))


def _pair_key(x: int, y: int) -> Tuple[int, int]:
    return (x, y) if x < y else (y, x)


def _local_values(s: Scheme, node: int,
                  ivs: IVTable) -> Dict[Tuple[int, int], int]:
    """The only part of the table a decoder sees: values of stored files."""
    return {(q, n): ivs.values[(q, n)]
            for n in s.placement[node] for q in range(s.Q)}


def _payload(transcript: Transcript, node: int, key: Tuple) -> int:
    try:
        return transcript.by_key[key].payload
    except KeyError:
        raise MissingMessageError(node, key) from None


def _sd_groups(s: Scheme, u: int,
               T: int) -> Iterator[Tuple[str, Tuple[int, ...], int, list]]:
    """Node u's coding groups in wire order: (tag, prefix, width, members).

    Member j sits at coding point j of GF(2^width) and is (key, index):
    segment index of value key, the one u holds.  A group of g members
    goes out as g - lam power sums, power p under meta prefix + (p,).
    """
    t, lam = s.design.t, s.design.lam
    block = s.placement[u]
    yield ("SD-diagonal", (), T // t,
           [((x, x), s.point_blocks[x].index(u)) for x in block])
    for x in block:
        yield ("SD-offdiagonal", (x,), T // lam,
               [((x, y), s.pair_blocks[_pair_key(x, y)].index(u))
                for y in block if y != x])


def _power_sums(field: BinaryField, terms: Iterable[Tuple[int, int]],
                count: int) -> List[int]:
    """sum_j point_j^p * value_j for p = 0..count-1 over (point_j, value_j).

    Points and values are field elements by construction, so the
    multiplies skip the range check.
    """
    mul = field._mul
    sums = [0] * count
    for point, value in terms:
        sums[0] ^= value
        for p in range(1, count):
            value = mul(value, point)
            sums[p] ^= value
    return sums


def shuffle_sd(s: Scheme, ivs: IVTable) -> Transcript:
    """Coded shuffle for the symmetric-design scheme."""
    if s.kind != "sd":
        raise SchemeParameterError(f"expected an sd scheme, got {s.kind}")
    lam, T = s.design.lam, ivs.T
    messages = []
    for u in range(s.K):
        for tag, prefix, width, members in _sd_groups(s, u, T):
            terms = [(j, split_bits(ivs.values[key], T, T // width)[index])
                     for j, (key, index) in enumerate(members)]
            sums = _power_sums(BinaryField(width), terms, len(members) - lam)
            messages.extend(
                Message(sender=u, tag=tag, meta=prefix + (p,), bits=width,
                        payload=payload)
                for p, payload in enumerate(sums))
    return _finish(messages)


def decode_sd(s: Scheme, node: int, transcript: Transcript, ivs: IVTable,
              solved: Optional[dict] = None) -> Dict[Tuple[int, int], int]:
    """Recover every intermediate value node needs, from messages alone.

    Only the node's locally stored values are read from the table.  Each
    group of another sender that holds a needed value reduces, once the
    local terms are subtracted, to a square power-sum system.

    solved memoizes those systems, keyed by (width, unknown points, this
    node's right-hand sides), so decodes that share one dict solve each
    distinct system once.  A node only ever reuses the solution of the
    very system its own sums pose: what another node read never enters.
    """
    if s.kind != "sd":
        raise SchemeParameterError(f"expected an sd scheme, got {s.kind}")
    if solved is None:
        solved = {}
    lam, T = s.design.lam, ivs.T
    local = _local_values(s, node, ivs)
    needed = node_view(s, node).needed
    segs: Dict[Tuple[Tuple[int, int], int], int] = {}
    widths: Dict[Tuple[int, int], int] = {}
    for u in range(s.K):
        if u == node:
            continue
        for tag, prefix, width, members in _sd_groups(s, u, T):
            if needed.isdisjoint(key for key, _ in members):
                continue
            field = BinaryField(width)
            known = [(j, split_bits(local[key], T, T // width)[index])
                     for j, (key, index) in enumerate(members) if key in local]
            unknown = tuple(j for j, (key, _) in enumerate(members)
                            if key not in local)
            sums = tuple(
                _payload(transcript, node, (u, tag, prefix + (p,))) ^ own
                for p, own in enumerate(
                    _power_sums(field, known, len(members) - lam)))
            system = (width, unknown, sums)
            values = solved.get(system)
            if values is None:
                values = solved[system] = tuple(
                    solve_power_sums(field, unknown, sums))
            for j, value in zip(unknown, values):
                segs[members[j]] = value
                widths[members[j][0]] = width
    return {key: join_bits((segs[key, i] for i in range(T // widths[key])),
                           widths[key])
            for key in needed}


def shuffle_ads(s: Scheme, ivs: IVTable) -> Transcript:
    """Shuffle for an ADS scheme.

    A pair of files in c >= 1 common blocks exchanges both orientations
    through them: the j-th common block sends the XOR of the j-th T/c-bit
    segments.  A pair in no common block (possible only when lam = 0)
    falls back to plain segments, the i-th block through the file sending
    the i-th T/k-bit segment of each orientation.
    """
    if s.kind != "ads":
        raise SchemeParameterError(f"expected an ads scheme, got {s.kind}")
    lam, k = s.design.source.lam, s.design.source.k
    T = ivs.T
    messages = []
    for x in range(s.N):
        for y in range(x + 1, s.N):
            common = s.pair_blocks.get((x, y), ())
            c = len(common)
            if c not in (lam, lam + 1):
                raise AssertionError(
                    f"pair ({x},{y}) lies in {c} blocks, expected "
                    f"{lam} or {lam + 1}")
            if c:
                sums = split_bits(ivs.values[(x, y)] ^ ivs.values[(y, x)],
                                  T, c)
                messages.extend(
                    Message(sender=u, tag="ADS-pairsum", meta=(x, y, j),
                            bits=T // c, payload=sums[j])
                    for j, u in enumerate(common))
            else:
                for q, n in ((x, y), (y, x)):
                    segs = split_bits(ivs.values[(q, n)], T, k)
                    messages.extend(
                        Message(sender=u, tag="ADS-segment", meta=(q, n, i),
                                bits=T // k, payload=segs[i])
                        for i, u in enumerate(s.point_blocks[n]))
    return _finish(messages)


# the names of the former lam-specific encoders, for callers that import them
shuffle_ads_pos = shuffle_ads_golomb = shuffle_ads


def decode_ads(s: Scheme, node: int, transcript: Transcript, ivs: IVTable,
               joined: Optional[dict] = None) -> Dict[Tuple[int, int], int]:
    """Recover every intermediate value node needs in an ADS scheme.

    Only the node's locally stored values are read from the table.  The
    joined pair-sum payloads of a pair are v_{q,n} ^ v_{n,q}, unmasked
    with the stored opposite orientation; segment messages join to the
    value itself.

    joined memoizes each joined message group, keyed by
    ("ADS-pairsum", x, y) or ("ADS-segment", q, n), so decodes of one
    transcript that share one dict read each message once.  It holds only
    transcript bits, never a node's stored values.
    """
    if s.kind != "ads":
        raise SchemeParameterError(f"expected an ads scheme, got {s.kind}")
    if joined is None:
        joined = {}
    T = ivs.T
    through, pairs = s.point_blocks, s.pair_blocks
    local = _local_values(s, node, ivs)
    out = {}
    for q, n in node_view(s, node).needed:
        x, y = _pair_key(q, n)
        senders = pairs.get((x, y))
        if senders:
            group, mask = ("ADS-pairsum", x, y), local[(n, q)]
        else:
            group, mask, senders = ("ADS-segment", q, n), 0, through[n]
        value = joined.get(group)
        if value is None:
            tag, a, b = group
            value = joined[group] = join_bits(
                [_payload(transcript, node, (u, tag, (a, b, j)))
                 for j, u in enumerate(senders)], T // len(senders))
        out[(q, n)] = value ^ mask
    return out


def measure_load(s: Scheme, transcript: Transcript, T: int) -> Fraction:
    """Communication load: total shuffle bits over Q*N*T."""
    return Fraction(transcript.total_bits, s.Q * s.N * T)


@dataclass(frozen=True)
class RunResult:
    """One simulated run: the values, the wire traffic and the decodes."""

    ivs: IVTable
    transcript: Transcript
    recovered: Dict[int, Dict[Tuple[int, int], int]]
    decode_ok: bool
    load: Fraction


def run(s: Scheme, seed: int, T: int) -> RunResult:
    """Simulate one scheme end to end on T-bit values drawn from seed.

    Shuffles with the encoder of the scheme kind, decodes at every node
    and reduces.  decode_ok holds when every node recovered exactly the
    values it needs, each equal to the table, and every reduce output
    matches the centralized oracle.
    """
    ivs = generate_ivs(s, seed, T)
    if s.kind == "sd":
        # one memo for every node: receivers lacking the same points
        # pose, and share, the same systems
        transcript = shuffle_sd(s, ivs)
        decode = functools.partial(decode_sd, solved={})
    else:
        # one memo for every node: each message group is joined once
        transcript = shuffle_ads(s, ivs)
        decode = functools.partial(decode_ads, joined={})
    decode_ok = True
    recovered = {}
    for node in range(s.K):
        got = decode(s, node, transcript, ivs)
        if got.keys() != node_view(s, node).needed or any(
                value != ivs.values[key] for key, value in got.items()):
            decode_ok = False
        recovered[node] = got
    oracle = centralized_outputs(s, ivs)
    outputs = reduce_outputs(s, ivs, recovered)
    if any(value != oracle[q]
           for per_node in outputs.values() for q, value in per_node.items()):
        decode_ok = False
    return RunResult(ivs=ivs, transcript=transcript, recovered=recovered,
                     decode_ok=decode_ok,
                     load=measure_load(s, transcript, T))


def transcript_lines(transcript: Transcript) -> Iterator[str]:
    """One canonical JSON object per message, in transcript order, each
    line ending in a newline."""
    # the bytes of json.dumps(..., separators=(",", ":"), sort_keys=True)
    tags: Dict[str, str] = {}
    for m in transcript.messages:
        tag = tags.get(m.tag)
        if tag is None:
            tag = tags[m.tag] = json.dumps(m.tag)
        meta = ",".join(map(str, m.meta))
        payload = m.payload.to_bytes((m.bits + 7) // 8, "big").hex()
        yield (f'{{"bits":{m.bits},"meta":[{meta}],"payload":"{payload}",'
               f'"sender":{m.sender},"tag":{tag}}}\n')


def transcript_to_jsonl(transcript: Transcript) -> str:
    """The whole transcript as JSON lines, one message per line."""
    return "".join(transcript_lines(transcript))
