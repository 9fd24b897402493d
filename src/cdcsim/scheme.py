"""Map/Reduce scheme construction on top of a design.

A Scheme fixes the file placement and reduce assignment for K nodes over N
files and Q output functions.  Both constructions here use K = N = Q: the
symmetric-design scheme stores block B at node B and reduces the
complement, the ADS scheme stores and reduces translate D + r at node r.

Intermediate values are T-bit integers drawn from a keyed hash stream, so
every run is reproducible from (seed, T) alone and a centralized
evaluation is available as an oracle for the shuffle/decode pipeline.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple, Union

from .designs import Development, SymmetricDesign
from .gf import BinaryField


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


@dataclass(frozen=True)
class Scheme:
    """Placement and reduce assignment for one Map/Reduce run."""

    kind: str
    K: int
    N: int
    Q: int
    r: int
    s: int
    placement: Tuple[Tuple[int, ...], ...]
    assignment: Tuple[Tuple[int, ...], ...]
    design: Union[SymmetricDesign, Development]

    @cached_property
    def point_blocks(self) -> Dict[int, Tuple[int, ...]]:
        """Blocks (nodes) storing each file, in ascending block order."""
        through: Dict[int, list] = {}
        for u, block in enumerate(self.placement):
            for x in block:
                through.setdefault(x, []).append(u)
        return {x: tuple(us) for x, us in through.items()}

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


@dataclass(frozen=True)
class IVTable:
    """All Q*N intermediate values of one run, each T bits."""

    T: int
    values: Dict[Tuple[int, int], int]


@dataclass(frozen=True)
class NodeView:
    """What one node holds locally and what it still needs to reduce."""

    node: int
    local: frozenset
    needed: frozenset


def build_scheme_sd(design: SymmetricDesign) -> Scheme:
    """Scheme on a symmetric design: node B maps B, reduces its complement.

    Computation load r = t, cascade factor s = v - t.  Requires t > lam+1,
    the regime where every node both sends and decodes coded signals.
    """
    if design.t <= design.lam + 1:
        raise SchemeParameterError(
            f"need t > lam+1, got t={design.t}, lam={design.lam}")
    v = design.v
    assignment = tuple(
        tuple(x for x in range(v) if x not in set(block))
        for block in design.blocks)
    return Scheme(kind="sd", K=v, N=v, Q=v, r=design.t, s=v - design.t,
                  placement=design.blocks, assignment=assignment,
                  design=design)


def build_scheme_ads(dev: Development) -> Scheme:
    """Scheme on an ADS development: node r maps and reduces block D + r."""
    n, k = dev.source.n, dev.source.k
    return Scheme(kind="ads", K=n, N=n, Q=n, r=k, s=k,
                  placement=dev.blocks, assignment=dev.blocks, design=dev)


def _check_T(s: Scheme, T: int) -> None:
    if not isinstance(T, int) or T < 1:
        raise SchemeParameterError(f"T must be a positive integer, got {T}")
    if s.kind == "sd":
        t, lam = s.design.t, s.design.lam
        if T % t or T % lam:
            raise SchemeParameterError(
                f"T={T} must be divisible by t={t} and lam={lam}")
        if 2 ** (T // t) < t:
            raise SchemeParameterError(
                f"T={T} gives only {2 ** (T // t)} coefficients for "
                f"{t}-point encoding")
        if 2 ** (T // lam) < t - 1:
            raise SchemeParameterError(
                f"T={T} gives only {2 ** (T // lam)} coefficients for "
                f"{t - 1}-point encoding")
        # the shuffle needs both extension fields to exist
        BinaryField(T // t)
        BinaryField(T // lam)
    else:
        lam, k = s.design.source.lam, s.design.source.k
        if lam >= 1:
            if T % lam or T % (lam + 1):
                raise SchemeParameterError(
                    f"T={T} must be divisible by both {lam} and {lam + 1}")
        elif T % k:
            raise SchemeParameterError(f"T={T} must be divisible by k={k}")


def choose_T(s: Scheme, scale: int = 1) -> int:
    """Smallest bit width every segment rule divides, times scale.

    For the symmetric-design scheme the width must also give each of the
    two binary extension fields enough distinct coefficients for its
    encoding points.
    """
    if not isinstance(scale, int) or scale < 1:
        raise SchemeParameterError(f"scale must be a positive integer, got {scale}")
    if s.kind == "sd":
        t, lam = s.design.t, s.design.lam
        base = math.lcm(t, lam)
        T = base
        while 2 ** (T // t) < t or 2 ** (T // lam) < t - 1:
            T += base
    else:
        lam, k = s.design.source.lam, s.design.source.k
        T = lam * (lam + 1) if lam >= 1 else k
    T *= scale
    _check_T(s, T)
    return T


def _stream_bits(seed: int, q: int, n: int, nbits: int) -> int:
    out = b""
    counter = 0
    while 8 * len(out) < nbits:
        h = hashlib.blake2b(
            q.to_bytes(8, "big") + n.to_bytes(8, "big")
            + counter.to_bytes(8, "big"),
            key=seed.to_bytes(8, "big"))
        out += h.digest()
        counter += 1
    return int.from_bytes(out, "big") >> (8 * len(out) - nbits)


def generate_ivs(s: Scheme, seed: int, T: int) -> IVTable:
    """Deterministic T-bit intermediate values for all (q, n) pairs."""
    if not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
        raise SchemeParameterError(f"seed must be in [0, 2^64), got {seed}")
    _check_T(s, T)
    values = {(q, n): _stream_bits(seed, q, n, T)
              for q in range(s.Q) for n in range(s.N)}
    return IVTable(T=T, values=values)


def node_view(s: Scheme, node: int) -> NodeView:
    """Local and needed (q, n) pairs for one node."""
    if not 0 <= node < s.K:
        raise SchemeParameterError(f"node {node} outside [0, {s.K})")
    stored = set(s.placement[node])
    local = frozenset((q, n) for q in range(s.Q) for n in stored)
    needed = frozenset((q, n) for q in s.assignment[node]
                       for n in range(s.N) if n not in stored)
    return NodeView(node=node, local=local, needed=needed)


def centralized_outputs(s: Scheme, ivs: IVTable) -> Dict[int, int]:
    """Oracle reduce: every output folded over the full table."""
    out = {}
    for q in range(s.Q):
        acc = 0
        for n in range(s.N):
            acc ^= ivs.values[(q, n)]
        out[q] = acc
    return out


def reduce_outputs(
        s: Scheme, ivs: IVTable,
        recovered: Dict[int, Dict[Tuple[int, int], int]],
) -> Dict[int, Dict[int, int]]:
    """Per-node reduce from stored plus recovered intermediate values.

    Node k may consult the IV table only for files it stores; everything
    else must appear in recovered[k] or IncompleteRecoveryError is raised.
    """
    out: Dict[int, Dict[int, int]] = {}
    for node in range(s.K):
        stored = set(s.placement[node])
        got = recovered.get(node, {})
        results = {}
        for q in s.assignment[node]:
            acc = 0
            for n in range(s.N):
                if n in stored:
                    acc ^= ivs.values[(q, n)]
                elif (q, n) in got:
                    acc ^= got[(q, n)]
                else:
                    raise IncompleteRecoveryError(node, q, n)
            results[q] = acc
        out[node] = results
    return out


def scheme_params(s: Scheme) -> Dict[str, object]:
    """Construction parameters as a plain dict (for reports and dumps)."""
    if s.kind == "sd":
        d = s.design
        return {"v": d.v, "t": d.t, "lam": d.lam}
    a = s.design.source
    return {"n": a.n, "k": a.k, "lam": a.lam, "mu": a.mu, "D": list(a.D)}


def scheme_to_json(s: Scheme) -> str:
    """Canonical JSON description of a scheme (byte-stable)."""
    import json

    doc = {
        "kind": s.kind, "K": s.K, "N": s.N, "Q": s.Q, "r": s.r, "s": s.s,
        "params": scheme_params(s),
        "placement": [list(b) for b in s.placement],
        "assignment": [list(b) for b in s.assignment],
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
