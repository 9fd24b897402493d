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
Each v_{x,x} splits into t segments over the blocks through x; node u
folds its segments of all t diagonal values into t-lam coded signals with
coefficients a_j^p, where a_j is position j of the block embedded in
GF(2^(T/t)).  Each v_{x,y} (x != y) splits into lam segments over the
blocks through both points; for each local file x, node u folds its
segments of the t-1 values v_{x,y} into t-lam-1 signals with coefficients
b_j^p over GF(2^(T/lam)), j the position of y among the others.  A
receiver subtracts the terms it can compute locally and is left with a
square power-sum system at distinct points.

ADS scheme: translates share both orientations of a pair through their
common blocks (the j-th common block sends the XOR of the j-th segments).
When lam = 0, pairs with no common block fall back to plain segments of
each orientation, one per block through the file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

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


def shuffle_sd(s: Scheme, ivs: IVTable) -> Transcript:
    """Coded shuffle for the symmetric-design scheme."""
    if s.kind != "sd":
        raise SchemeParameterError(f"expected an sd scheme, got {s.kind}")
    t, lam, T = s.design.t, s.design.lam, ivs.T
    diag_field = BinaryField(T // t)
    off_field = BinaryField(T // lam)
    through, pairs = s.point_blocks, s.pair_blocks
    messages = []
    for u, block in enumerate(s.placement):
        diag_segs = [split_bits(ivs.values[(x, x)], T, t)[through[x].index(u)]
                     for x in block]
        for power in range(t - lam):
            acc = 0
            for j, seg in enumerate(diag_segs):
                acc ^= diag_field.mul(diag_field.pow(j, power), seg)
            messages.append(Message(sender=u, tag="SD-diagonal", meta=(power,),
                                    bits=T // t, payload=acc))
        for x in block:
            others = [y for y in block if y != x]
            row_segs = [
                split_bits(ivs.values[(x, y)], T, lam)[
                    pairs[_pair_key(x, y)].index(u)]
                for y in others]
            for power in range(t - lam - 1):
                acc = 0
                for j, seg in enumerate(row_segs):
                    acc ^= off_field.mul(off_field.pow(j, power), seg)
                messages.append(Message(sender=u, tag="SD-offdiagonal",
                                        meta=(x, power),
                                        bits=T // lam, payload=acc))
    return _finish(messages)


def decode_sd(s: Scheme, node: int, transcript: Transcript,
              ivs: IVTable) -> Dict[Tuple[int, int], int]:
    """Recover every intermediate value node needs, from messages alone.

    Only the node's locally stored values are read from the table; each
    sender's signals reduce to square power-sum systems once the local
    terms are subtracted.
    """
    if s.kind != "sd":
        raise SchemeParameterError(f"expected an sd scheme, got {s.kind}")
    t, lam, T = s.design.t, s.design.lam, ivs.T
    diag_field = BinaryField(T // t)
    off_field = BinaryField(T // lam)
    through, pairs = s.point_blocks, s.pair_blocks
    stored = set(s.placement[node])
    local = _local_values(s, node, ivs)

    diag_seg: Dict[Tuple[int, int], int] = {}
    off_seg: Dict[Tuple[int, int, int], int] = {}
    for u, block in enumerate(s.placement):
        if u == node:
            continue
        known = []
        unknown = []
        for j, x in enumerate(block):
            if x in stored:
                seg = split_bits(local[(x, x)], T, t)[through[x].index(u)]
                known.append((j, seg))
            else:
                unknown.append((j, x))
        sums = []
        for power in range(t - lam):
            rhs = _payload(transcript, node, (u, "SD-diagonal", (power,)))
            for j, seg in known:
                rhs ^= diag_field.mul(diag_field.pow(j, power), seg)
            sums.append(rhs)
        values = solve_power_sums(diag_field, [j for j, _ in unknown], sums)
        for (_, x), value in zip(unknown, values):
            diag_seg[(x, u)] = value

        for x in block:
            if x in stored:
                continue
            others = [y for y in block if y != x]
            known = []
            unknown = []
            for j, y in enumerate(others):
                if y in stored:
                    seg = split_bits(local[(x, y)], T, lam)[
                        pairs[_pair_key(x, y)].index(u)]
                    known.append((j, seg))
                else:
                    unknown.append((j, y))
            sums = []
            for power in range(t - lam - 1):
                rhs = _payload(transcript, node,
                               (u, "SD-offdiagonal", (x, power)))
                for j, seg in known:
                    rhs ^= off_field.mul(off_field.pow(j, power), seg)
                sums.append(rhs)
            values = solve_power_sums(off_field, [j for j, _ in unknown], sums)
            for (_, y), value in zip(unknown, values):
                off_seg[(x, y, u)] = value

    out = {}
    for q, n in node_view(s, node).needed:
        if q == n:
            out[(q, n)] = join_bits(
                (diag_seg[(q, u)] for u in through[q]), T // t)
        else:
            out[(q, n)] = join_bits(
                (off_seg[(q, n, u)] for u in pairs[_pair_key(q, n)]),
                T // lam)
    return out


def shuffle_ads_pos(s: Scheme, ivs: IVTable) -> Transcript:
    """Pair-exchange shuffle for an ADS scheme with lam >= 1.

    Every pair of files shares at least one block; each of its c common
    blocks sends the XOR of the matching T/c-bit segments of the two
    orientations.
    """
    if s.kind != "ads":
        raise SchemeParameterError(f"expected an ads scheme, got {s.kind}")
    lam, T = s.design.source.lam, ivs.T
    if lam < 1:
        raise SchemeParameterError("pair-exchange shuffle needs lam >= 1")
    messages = []
    for x in range(s.N):
        for y in range(x + 1, s.N):
            common = s.pair_blocks[(x, y)]
            c = len(common)
            if c not in (lam, lam + 1):
                raise AssertionError(
                    f"pair ({x},{y}) lies in {c} blocks, expected "
                    f"{lam} or {lam + 1}")
            sx = split_bits(ivs.values[(x, y)], T, c)
            sy = split_bits(ivs.values[(y, x)], T, c)
            for j, u in enumerate(common):
                messages.append(Message(sender=u, tag="ADS-pairsum",
                                        meta=(x, y, j), bits=T // c,
                                        payload=sx[j] ^ sy[j]))
    return _finish(messages)


def shuffle_ads_golomb(s: Scheme, ivs: IVTable) -> Transcript:
    """Shuffle for an ADS scheme with lam = 0.

    Pairs covered by one block exchange a full-width XOR through it; the
    remaining pairs fall back to plain segments, the i-th block through
    the file sending the i-th T/k-bit segment of each orientation.
    """
    if s.kind != "ads":
        raise SchemeParameterError(f"expected an ads scheme, got {s.kind}")
    lam, k = s.design.source.lam, s.design.source.k
    T = ivs.T
    if lam != 0:
        raise SchemeParameterError("segment-fallback shuffle needs lam = 0")
    through, pairs = s.point_blocks, s.pair_blocks
    messages = []
    for x in range(s.N):
        for y in range(x + 1, s.N):
            common = pairs.get((x, y), ())
            if len(common) > 1:
                raise AssertionError(
                    f"pair ({x},{y}) lies in {len(common)} blocks")
            if common:
                messages.append(Message(
                    sender=common[0], tag="ADS-pairsum", meta=(x, y, 0),
                    bits=T, payload=ivs.values[(x, y)] ^ ivs.values[(y, x)]))
            else:
                for q, n in ((x, y), (y, x)):
                    segs = split_bits(ivs.values[(q, n)], T, k)
                    for i, u in enumerate(through[n]):
                        messages.append(Message(
                            sender=u, tag="ADS-segment", meta=(q, n, i),
                            bits=T // k, payload=segs[i]))
    return _finish(messages)


def decode_ads(s: Scheme, node: int, transcript: Transcript,
               ivs: IVTable) -> Dict[Tuple[int, int], int]:
    """Recover every intermediate value node needs in an ADS scheme.

    Pair-sum payloads are unmasked with the locally known opposite
    orientation; segment messages are joined directly.
    """
    if s.kind != "ads":
        raise SchemeParameterError(f"expected an ads scheme, got {s.kind}")
    k, T = s.design.source.k, ivs.T
    through, pairs = s.point_blocks, s.pair_blocks
    local = _local_values(s, node, ivs)
    out = {}
    for q, n in node_view(s, node).needed:
        x, y = _pair_key(q, n)
        common = pairs.get((x, y), ())
        c = len(common)
        if c >= 1:
            mask = split_bits(local[(n, q)], T, c)
            parts = [_payload(transcript, node, (u, "ADS-pairsum", (x, y, j)))
                     ^ mask[j] for j, u in enumerate(common)]
            out[(q, n)] = join_bits(parts, T // c)
        else:
            parts = [_payload(transcript, node, (u, "ADS-segment", (q, n, i)))
                     for i, u in enumerate(through[n])]
            out[(q, n)] = join_bits(parts, T // k)
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

    Shuffles with the encoder that the scheme kind (and, for an ADS
    scheme, lam) calls for, decodes at every node and reduces.  decode_ok
    holds when every node recovered exactly the values it needs, each
    equal to the table, and every reduce output matches the centralized
    oracle.
    """
    ivs = generate_ivs(s, seed, T)
    if s.kind == "sd":
        transcript, decode = shuffle_sd(s, ivs), decode_sd
    elif s.design.source.lam >= 1:
        transcript, decode = shuffle_ads_pos(s, ivs), decode_ads
    else:
        transcript, decode = shuffle_ads_golomb(s, ivs), decode_ads
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


def transcript_to_jsonl(transcript: Transcript) -> str:
    """One canonical JSON object per message, in transcript order."""
    lines = []
    for m in transcript.messages:
        nbytes = (m.bits + 7) // 8
        lines.append(json.dumps(
            {"sender": m.sender, "tag": m.tag, "meta": list(m.meta),
             "bits": m.bits, "payload": m.payload.to_bytes(nbytes, "big").hex()},
            separators=(",", ":"), sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def transcript_from_jsonl(text: str) -> Transcript:
    """Parse a transcript dump back into canonical order."""
    messages = []
    for line in text.splitlines():
        if not line.strip():
            continue
        data = json.loads(line)
        bits = int(data["bits"])
        payload = int.from_bytes(bytes.fromhex(data["payload"]), "big")
        if payload >= 1 << bits:
            raise ValueError(f"payload wider than declared {bits} bits")
        messages.append(Message(
            sender=int(data["sender"]), tag=str(data["tag"]),
            meta=tuple(int(x) for x in data["meta"]),
            bits=bits, payload=payload))
    return _finish(messages)
