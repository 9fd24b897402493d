#!/usr/bin/env python3
"""Process-per-op benchmark of the cdcsim command line.

Run from the repository root:

    python3 perfbench/run.py --workload sd-planes --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke --seed 1 --seconds 1 --trace 1

Every operation is one `python -m cdcsim ...` in a fresh process.  This
client runs them one at a time in a closed loop, as a user would, and never
two at once.  A fresh process per op also keeps process-global state (such
as cdcsim.gf's cache of checked moduli) from carrying over between ops.

--trace 0 repeats passes over the workload's op list until --seconds have
gone by and reports the end-to-end metrics: pass_s, setup_s (import time of
cdcsim.cli in a fresh interpreter) and peak_rss_mb.  --trace 1 runs the
same untraced passes, then replays every op of every workload once more
through perfbench/replay.py with spans around each stage, and runs the
layer microbenchmarks in perfbench/micro.py; it reports the per-layer
metrics.  Each op's stdout must match the sha256 pinned in
perfbench/expected.json, and the last line printed is the result as JSON.
Full results, provenance and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from string import Formatter
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
EXPECTED = json.loads((BENCH / "expected.json").read_text())
TIMEOUT_S = 60
SETUP_PER_PASS = 3
SETUP_CODE = ("import time; t = time.perf_counter(); import cdcsim.cli; "
              "print(repr(time.perf_counter() - t))")


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  Flag values may name a prepared input as {name}."""

    id: str
    command: str
    flags: Dict[str, str]

    def resolve(self, seed: int, inputs: Dict[str, str]) -> Dict[str, str]:
        flags = {k: v.format(**inputs) for k, v in self.flags.items()}
        if self.command == "simulate":
            flags["--seed"] = str(seed)
        return flags

    def inputs(self) -> set:
        return {field for v in self.flags.values()
                for _, field, _, _ in Formatter().parse(v) if field}


def _sim(op_id: str, **flags) -> Op:
    return Op(op_id, "simulate",
              {"--" + k.replace("_", "-"): v for k, v in flags.items()})


WORKLOADS: Dict[str, List[Op]] = {
    # Field arithmetic does nearly all the work: power-sum solves over
    # GF(2^3) and GF(2^18) in plane 5's decode; --scale 4 adds GF(2^8) and
    # GF(2^32).  No ADS code runs.
    "sd-planes": [
        _sim("plane2", scheme="sd", plane="2"),
        _sim("plane3", scheme="sd", plane="3"),
        _sim("plane5", scheme="sd", plane="5"),
        _sim("plane3s4", scheme="sd", plane="3", scale="4"),
    ],
    # No field arithmetic: shuffle and scheme bookkeeping over up to 26 k
    # messages with K up to 110, both ADS shuffles, and the transcript writer.
    "ads-ruzsa": [
        _sim("ruzsa7", scheme="ads", ruzsa="7"),
        _sim("ruzsa11", scheme="ads", ruzsa="11", transcript="{transcript}"),
        _sim("comp7", scheme="ads", ads="{comp7}", n="42"),
        _sim("ads6", scheme="ads", ads="0,1,3", n="6"),
    ],
    # No shuffle and no extension field: brute-force design verification
    # and big-integer inequality checks, many short ops.
    "designs-analysis": [
        Op("design31", "design", {"--plane": "31"}),
        Op("design43", "design", {"--plane": "43"}),
        Op("verify31", "design", {"--verify": "{plane31}"}),
        Op("r101", "design", {"--ruzsa": "101"}),
        Op("plane200", "compare",
           {"--family": "plane", "--min": "2", "--max": "200"}),
        Op("ruzsa101", "compare",
           {"--family": "ruzsa", "--min": "3", "--max": "101"}),
        Op("p200", "check-appendix", {"--max-p": "200"}),
    ],
}

# Traced only: ruzsa 13 (K=156, 53 k messages) takes about 9 s, so a pass
# holding it fits too few times into a run for a steady pass_s.
TRACE_ONLY = [_sim("ruzsa13", scheme="ads", ruzsa="13")]

# Every harness path in seconds: both shuffles kinds, the transcript check,
# design build and verify, compare and check-appendix.
SMOKE = [
    _sim("plane2", scheme="sd", plane="2"),
    _sim("ads6t", scheme="ads", ads="0,1,3", n="6", transcript="{transcript}"),
    Op("design2", "design", {"--plane": "2"}),
    Op("verify2", "design", {"--verify": "{plane2}"}),
    Op("plane5cmp", "compare", {"--family": "plane", "--min": "2", "--max": "5"}),
    Op("p6", "check-appendix", {"--min-p": "5", "--max-p": "6"}),
]

# Stage spans reported as "<span>_s.<op>"; the rest appear only as self times.
TIMED_SPANS = ("designs.build", "designs.import", "designs.ruzsa",
               "scheme.choose_T", "scheme.generate_ivs", "scheme.reduce",
               "shuffle.encode", "shuffle.jsonl", "analysis.sweep",
               "analysis.appendix")


# Neighbours on a shared host slow every instruction by 10 to 100 %, in
# spells of a fraction of a second to minutes, and the guest's CPU time
# slows as much as its wall time.  So before every child it starts, the
# harness also times a reference child: a fresh interpreter running a fixed
# loop of stdlib work (REF_CODE), started and waited for the way an op is.
# pass_s and setup_s are scaled by REF_S / (the mean reference wall over
# the run): they read as on a host where the reference child takes REF_S.
# Both report the mean of their scaled samples, which, like the scale,
# averages over the whole run; a median of three or four passes swung more.
REF_CODE = """
acc, table, row = 0, {}, []
for i in range(40000):
    acc = (acc * 31 + i) & 0xFFFFFFFF
    table[i & 511] = table.get(i & 511, 0) ^ (((acc << 40) ^ i) >> 17)
    row.append(acc & 255)
row.sort()
print(acc ^ len(table) ^ row[0])
"""
REF_S = 0.1
SCALED = ("pass_s", "setup_s")


@dataclass
class Child:
    wall: float
    code: int
    rss_mb: float
    timed_out: bool
    stdout: bytes
    stderr: bytes


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: List[str], tmp: Path, timeout: float = TIMEOUT_S) -> Child:
    """Run argv to completion with stdout and stderr in files, never a pipe.

    A child still running at timeout is killed.  Max RSS comes from wait4.
    """
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(),
                                cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], timeout)[0]
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall=wall, code=proc.returncode, rss_mb=usage.ru_maxrss / 1024,
                 timed_out=timed_out, stdout=out_path.read_bytes(),
                 stderr=err_path.read_bytes())


def cli_argv(op: Op, flags: Dict[str, str]) -> List[str]:
    argv = [sys.executable, "-m", "cdcsim", op.command]
    for flag, value in flags.items():
        argv += [flag, value]
    return argv


def summary(values: List[float]) -> Dict[str, float]:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"mean": statistics.fmean(values), "median": median, "q1": q1,
            "q3": q3, "n": len(values)}


def unit(name: str) -> str:
    """Unit from the metric name: the last unit token of its measure."""
    measure = name.split(".")[1] if "." in name else name
    for token in reversed(measure.split("_")):
        if token in ("s", "ms", "us", "ns"):
            return token
        if token == "mb":
            return "MiB"
    return "ratio"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Runs and checks ops for one benchmark run; records every failure."""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.inputs: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.transcripts: Dict[str, str] = {}
        self.ref_samples: List[float] = []

    def host_sample(self) -> None:
        """Time one reference child; see REF_CODE."""
        child = run_child([sys.executable, "-c", REF_CODE], self.tmp, 10)
        if child.code != 0 or child.timed_out:
            raise SystemExit("reference child failed: "
                             f"{child.stderr.decode(errors='replace')}")
        self.ref_samples.append(child.wall)

    def prepare(self, ops: List[Op]) -> None:
        """Make the documents and CSVs the ops read, through the CLI."""
        for name in sorted(set().union(*(op.inputs() for op in ops))):
            if name == "transcript":
                self.inputs[name] = str(self.tmp / "transcript.jsonl")
            elif name == "comp7":
                doc = json.loads(self._setup_cli(["design", "--ruzsa", "7"]))
                members = set(doc["D"])
                self.inputs[name] = ",".join(
                    str(x) for x in range(doc["n"]) if x not in members)
            elif name.startswith("plane"):
                path = self.tmp / f"{name}.json"
                self._setup_cli(["design", "--plane", name[len("plane"):],
                                 "--out", str(path)])
                self.inputs[name] = str(path)
            else:
                raise ValueError(f"no recipe for input {name!r}")

    def _setup_cli(self, args: List[str]) -> bytes:
        child = run_child([sys.executable, "-m", "cdcsim"] + args, self.tmp)
        if child.code != 0 or child.timed_out:
            raise SystemExit(f"set-up command {args} failed: "
                             f"{child.stderr.decode(errors='replace')}")
        return child.stdout

    def fail(self, what: str, problems: List[str]) -> bool:
        """Count one attempted child; record its problems.  True if none."""
        self.attempted += 1
        self.failed += bool(problems)
        for problem in problems:
            self.failures.append(f"{what}: {problem}")
        return not problems

    def setup_sample(self) -> float:
        self.host_sample()
        child = run_child([sys.executable, "-c", SETUP_CODE], self.tmp, 10)
        try:
            value = float(child.stdout)
        except ValueError:
            value = None
        ok = self.fail("setup", [] if child.code == 0 and value else
                       [f"import failed: {child.stderr[-400:]!r}"])
        return value if ok else None

    def run_op(self, op: Op, argv_for, label: str) -> Child:
        """Run one op (CLI or traced replay) and check everything it wrote."""
        flags = op.resolve(self.seed, self.inputs)
        transcript = flags.get("--transcript")
        if transcript and os.path.exists(transcript):
            os.remove(transcript)
        child = run_child(argv_for(op, flags), self.tmp)
        self.fail(f"{label} {op.id}", self.check(op, child, transcript))
        return child

    def check(self, op: Op, child: Child, transcript) -> List[str]:
        if child.timed_out:
            return [f"timed out after {TIMEOUT_S} s"]
        problems = []
        if child.code != 0:
            problems.append(f"exit code {child.code}")
        if b"Traceback" in child.stderr:
            problems.append("traceback on stderr")
        if sha256(child.stdout) != EXPECTED[op.id]:
            problems.append("stdout differs from the pinned digest")
        if op.command == "simulate":
            try:
                verdict = json.loads(child.stdout)
            except ValueError:
                return problems + ["verdict is not JSON"]
            if verdict.get("decode_ok") is not True or \
                    verdict.get("match") is not True:
                problems.append(f"verdict {verdict}")
            if transcript:
                problems += self.check_transcript(op, transcript,
                                                  verdict.get("total_bits"))
        return problems

    def check_transcript(self, op: Op, path: str, total_bits) -> List[str]:
        """Every line parses, bits add up, and bytes repeat across runs."""
        try:
            data = Path(path).read_bytes()
        except OSError as e:
            return [f"transcript not written: {e}"]
        problems = []
        bits = 0
        for number, line in enumerate(data.splitlines(), 1):
            try:
                message = json.loads(line)
                bits += message["bits"]
                width = 2 * ((message["bits"] + 7) // 8)
                if len(message["payload"]) != width or \
                        set(message) != {"sender", "tag", "meta", "bits",
                                         "payload"}:
                    problems.append(f"transcript line {number} malformed")
            except (ValueError, KeyError, TypeError):
                problems.append(f"transcript line {number} does not parse")
        if bits != total_bits:
            problems.append(f"transcript bits {bits} != total_bits {total_bits}")
        first = self.transcripts.setdefault(op.id, sha256(data))
        if first != sha256(data):
            problems.append("transcript bytes differ from an earlier run")
        return problems[:5]

    def run_pass(self, ops: List[Op]) -> Dict[str, object]:
        """One pass over ops; its wall time leaves out the host samples."""
        start = time.perf_counter()
        sampled = len(self.ref_samples)
        walls, rss = {}, []
        for op in ops:
            self.host_sample()
            child = self.run_op(op, cli_argv, "cli")
            walls[op.id] = child.wall
            rss.append(child.rss_mb)
        wall = (time.perf_counter() - start
                - sum(self.ref_samples[sampled:]))
        return {"wall": wall, "rss_mb": max(rss), "op_walls": walls}


def replay_argv(spans_path: Path):
    def argv_for(op: Op, flags: Dict[str, str]) -> List[str]:
        spec = {"op": op.id, "command": op.command, "flags": flags}
        return [sys.executable, str(BENCH / "replay.py"), json.dumps(spec),
                str(spans_path)]
    return argv_for


def span_metrics(op_id: str, spans: List[dict], wall: float):
    """Per-layer metrics and self times of one traced op."""
    duration = [s["end"] - s["start"] for s in spans]
    self_time = list(duration)
    for s, d in zip(spans, duration):
        if s["parent"] is not None:
            self_time[s["parent"]] -= d
    totals: Dict[str, float] = {}
    selfs: Dict[str, float] = {}
    for s, d, own in zip(spans, duration, self_time):
        totals[s["name"]] = totals.get(s["name"], 0.0) + d
        selfs[s["name"]] = selfs.get(s["name"], 0.0) + own
    metrics = {f"cli.overhead_s.{op_id}": wall - duration[0]}
    for name in TIMED_SPANS:
        if name in totals:
            metrics[f"{name}_s.{op_id}"] = totals[name]
    nodes = [d for s, d in zip(spans, duration)
             if s["name"] == "shuffle.decode_node"]
    if nodes:
        metrics[f"shuffle.decode_s.{op_id}"] = sum(nodes)
        metrics[f"shuffle.decode_node_ms_p50.{op_id}"] = \
            statistics.median(nodes) * 1e3
        metrics[f"shuffle.decode_node_ms_max.{op_id}"] = max(nodes) * 1e3
    stages = sum(d for s, d in zip(spans, duration) if s["parent"] == 0)
    return metrics, selfs, stages / duration[0]


def model_check(op_id: str, counts: dict, metrics: dict) -> str:
    """Predict sd decode time from solve counts and the solve microbenchmarks."""
    K, t, lam, T = counts["K"], counts["t"], counts["lam"], counts["T"]
    diag = K * (K - 1)
    off = diag * (t - lam)
    keys = (f"gf.solve_us.n{t - lam}.m{T // t}",
            f"gf.solve_us.n{t - lam - 1}.m{T // lam}")
    if not all(k in metrics for k in keys):
        return f"model check {op_id}: no microbenchmark for {keys}"
    predicted = (diag * metrics[keys[0]] + off * metrics[keys[1]]) * 1e-6
    traced = metrics[f"shuffle.decode_s.{op_id}"]
    return (f"model check {op_id}: gf.solves={diag + off} "
            f"({diag} x {keys[0]} + {off} x {keys[1]}) predicts "
            f"{predicted:.3f} s, traced shuffle.decode_s.{op_id} = "
            f"{traced:.3f} s, ratio {predicted / traced:.3f}")


def trace_run(runner: Runner, catalogue: List[Op], untraced: Dict[str, float],
              smoke: bool, report: dict) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    spans_path = runner.tmp / "spans.json"
    traced_walls = {}
    for op in catalogue:
        if spans_path.exists():
            spans_path.unlink()
        child = runner.run_op(op, replay_argv(spans_path), "traced")
        if not spans_path.exists():
            continue
        record = json.loads(spans_path.read_text())
        op_metrics, selfs, coverage = span_metrics(op.id, record["spans"],
                                                   child.wall)
        metrics.update(op_metrics)
        traced_walls[op.id] = child.wall
        counts = dict(record["counts"], stdout_bytes=len(child.stdout))
        if {"K", "t", "lam"} <= counts.keys():
            K = counts["K"]
            counts["gf_solves"] = K * (K - 1) * (1 + counts["t"] - counts["lam"])
        report["ops"][op.id] = {"wall_s": child.wall, "self_s": selfs,
                                "stage_coverage": coverage, "counts": counts}
        report["spans"] += record["spans"]
        print(f"# traced {op.id}: wall {child.wall:.3f} s, stages cover "
              f"{coverage:.4f} of the op span, self s "
              + " ".join(f"{k}={v:.4f}" for k, v in selfs.items())
              + "; counts " + json.dumps(counts, sort_keys=True))

    micro_out = runner.tmp / "micro.json"
    child = run_child([sys.executable, str(BENCH / "micro.py"),
                       str(runner.seed), str(micro_out)]
                      + (["--smoke"] if smoke else []), runner.tmp)
    if runner.fail("micro", [] if child.code == 0 and not child.timed_out
                   else [f"exit {child.code}: {child.stderr[-400:]!r}"]):
        metrics.update(json.loads(micro_out.read_text()))

    both = [i for i in untraced if i in traced_walls]
    if both:
        metrics["trace.overhead_ratio"] = (
            sum(traced_walls[i] for i in both) / sum(untraced[i] for i in both))
        print(f"# tracing overhead: traced wall / untraced median wall over "
              f"{', '.join(both)} = {metrics['trace.overhead_ratio']:.4f}")
    model_op = "plane2" if smoke else "plane5"
    if model_op in report["ops"] and f"shuffle.decode_s.{model_op}" in metrics:
        line = model_check(model_op, report["ops"][model_op]["counts"], metrics)
        report["model_check"] = line
        print("# " + line)
    return metrics


def provenance(seed: int) -> Dict[str, object]:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {"commit": commit, "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_at_start": os.getloadavg(), "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--smoke", action="store_true",
                        help="run the small smoke op list instead")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.smoke == (args.workload is not None):
        parser.error("give exactly one of --workload and --smoke")
    if not (ROOT / "src" / "cdcsim" / "cli.py").is_file():
        print(f"error: no cdcsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    name = "smoke" if args.smoke else args.workload
    ops = SMOKE if args.smoke else WORKLOADS[name]
    catalogue = SMOKE if args.smoke else [
        op for workload in WORKLOADS.values() for op in workload] + TRACE_ONLY
    report = {"workload": name, "trace": args.trace, "ops": {}, "spans": [],
              "provenance": provenance(args.seed)}
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT))
    try:
        runner = Runner(args.seed, tmp)
        runner.prepare(catalogue if args.trace else ops)
        setup, passes = [], []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            if not args.trace:
                setup += [runner.setup_sample() for _ in range(SETUP_PER_PASS)]
            passes.append(runner.run_pass(ops))
        runner.host_sample()
        setup = [v for v in setup if v is not None]
        host = statistics.fmean(runner.ref_samples)
        scale = REF_S / host
        untraced = {op.id: statistics.median(p["op_walls"][op.id]
                                             for p in passes) for op in ops}
        if args.trace:
            metrics = trace_run(runner, catalogue, untraced, args.smoke, report)
        else:
            metrics = {"pass_s": summary([p["wall"] * scale for p in passes]),
                       "peak_rss_mb": summary([p["rss_mb"] for p in passes])}
            if setup:
                metrics["setup_s"] = summary([v * scale for v in setup])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = runner.failed
    report.update(passes=passes, setup_samples=setup,
                  host_samples=runner.ref_samples, host_scale=scale,
                  untraced_op_s=untraced, failures=runner.failures,
                  attempted=runner.attempted, failed=failed,
                  failed_ratio=failed / max(runner.attempted, 1))
    for failure in runner.failures:
        print(f"# FAIL {failure}")
    print("# provenance " + json.dumps(report["provenance"]) +
          f" passes={len(passes)} setup_samples={len(setup)}")
    print(f"# host: reference child mean {host * 1e3:.3f} ms over "
          f"{len(runner.ref_samples)} samples (nominal {REF_S * 1e3:g} ms); "
          f"{', '.join(SCALED)} scaled by {scale:.4f}")
    print("# untraced op medians s (not scaled) " + " ".join(
        f"{k}={v:.4f}" for k, v in untraced.items()))
    print(f"# failed_ratio {report['failed_ratio']:.4f} "
          f"({failed} of {runner.attempted})")
    if args.trace:
        values = dict(sorted(metrics.items()))
    else:
        values = {}
        for key, s in metrics.items():
            stat = "mean" if key in SCALED else "median"
            values[key] = s[stat]
            print(f"# {key} ({stat} reported) mean {s['mean']:.6g} {unit(key)} "
                  f"median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} n {s['n']}"
                  + (f"; unscaled mean {s['mean'] / scale:.6g}"
                     if key in SCALED else ""))
    report["metrics"] = metrics
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": unit(k)}
                          for k, v in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
