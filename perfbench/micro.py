"""Layer microbenchmarks, run by run.py in a fresh process.

    python3 perfbench/micro.py SEED OUT_FILE [--smoke]

Operands come from random.Random(SEED).  Each timing is the median of
REPEATS rounds; the results go to OUT_FILE as one JSON object of
{metric name: value}.  The first BinaryField(32) is built before anything
else, so gf.field_init_ms.m32 includes the one-off irreducibility check a
CLI run pays.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

from cdcsim.designs import projective_plane, verify_symmetric_design
from cdcsim.gf import BinaryField, solve_power_sums
from cdcsim.shuffle import join_bits, split_bits

REPEATS = 5

# (multiply degrees, power-sum solve sizes (unknowns, degree), verified plane,
#  multiplies per round, solves per round).  n5.m3/n4.m18 are the diagonal
# and off-diagonal systems of plane 5, n7.m3/n6.m24 those of plane 7.
FULL = ((3, 8, 18, 24, 32), ((5, 3), (4, 18), (7, 3), (6, 24)), 43, 20000, 100)
SMOKE = ((2, 6), ((2, 2), (1, 6)), 3, 200, 5)


def _median_round(fn, per_round: int) -> float:
    """Median seconds per call of fn() over REPEATS rounds of per_round calls."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(per_round):
            fn()
        samples.append((time.perf_counter() - start) / per_round)
    return statistics.median(samples)


def run(seed: int, smoke: bool) -> dict:
    degrees, solve_sizes, plane, muls, solves = SMOKE if smoke else FULL
    rng = random.Random(seed)
    out = {}

    start = time.perf_counter()
    BinaryField(32)
    out["gf.field_init_ms.m32"] = (time.perf_counter() - start) * 1e3

    for m in degrees:
        field = BinaryField(m)
        pairs = [(rng.randrange(field.order), rng.randrange(field.order))
                 for _ in range(muls)]

        def mul_all(field=field, pairs=pairs):
            for a, b in pairs:
                field.mul(a, b)
        out[f"gf.mul_ns.m{m}"] = _median_round(mul_all, 1) / muls * 1e9

    for n, m in solve_sizes:
        field = BinaryField(m)
        systems = [(rng.sample(range(n + 1), n),
                    [rng.randrange(field.order) for _ in range(n)])
                   for _ in range(solves)]

        def solve_all(field=field, systems=systems):
            for points, sums in systems:
                solve_power_sums(field, points, sums)
        out[f"gf.solve_us.n{n}.m{m}"] = _median_round(solve_all, 1) / solves * 1e6

    value = rng.getrandbits(930)
    out["shuffle.split_join_us.w930"] = _median_round(
        lambda: join_bits(split_bits(value, 930, 31), 30), 200) * 1e6

    built = projective_plane(plane)
    start = time.perf_counter()
    verified = verify_symmetric_design(built.v, built.blocks)
    out[f"designs.verify_s.p{plane}"] = time.perf_counter() - start
    if verified != built:
        raise SystemExit(f"plane {plane} failed re-verification: {verified}")
    return out


def main(argv) -> int:
    results = run(int(argv[1]), "--smoke" in argv[3:])
    with open(argv[2], "w") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
