"""Tests of the benchmark harness, on its smoke op list."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def _run(*args: str, cwd: Path = bench.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
    return result


def test_smoke_untraced_reports_end_to_end_metrics():
    result = _result(_run("--smoke", "--seed", "1", "--seconds", "0"))
    metrics = result["metrics"]
    assert set(metrics) == {"pass_s", "setup_s", "peak_rss_mb"}
    assert metrics["pass_s"]["unit"] == "s"
    assert metrics["peak_rss_mb"]["unit"] == "MiB"
    assert all(m["value"] > 0 for m in metrics.values())
    # one pass over the six smoke ops, with its set-up samples
    assert result["attempted"] == bench.SETUP_PER_PASS + len(bench.SMOKE)
    # a reference child before every child, one more at the end, and the
    # timings scaled by REF_S over their mean
    report = json.loads((bench.OUT / "smoke-seed1-trace0.json").read_text())
    refs = report["host_samples"]
    assert len(refs) == result["attempted"] + 1
    scale = bench.REF_S / (sum(refs) / len(refs))
    assert abs(report["host_scale"] - scale) < 1e-12
    wall = report["passes"][0]["wall"]
    assert abs(metrics["pass_s"]["value"] - wall * scale) < 1e-9
    # the pass wall leaves the reference children out
    assert wall - sum(report["passes"][0]["op_walls"].values()) < min(refs)


def test_smoke_traced_reports_layers_and_model_check():
    done = _run("--smoke", "--seed", "2", "--seconds", "0", "--trace", "1")
    metrics = _result(done)["metrics"]
    for name in ("shuffle.decode_s.plane2", "shuffle.decode_node_ms_max.plane2",
                 "shuffle.jsonl_s.ads6t", "scheme.reduce_s.ads6t",
                 "designs.import_s.verify2", "analysis.appendix_s.p6",
                 "cli.overhead_s.plane5cmp", "gf.solve_us.n1.m6",
                 "gf.field_init_ms.m32", "trace.overhead_ratio"):
        assert name in metrics, name
    assert "model check plane2" in done.stdout
    report = json.loads((bench.OUT / "smoke-seed2-trace1.json").read_text())
    spans = report["spans"]
    for span in spans:
        if span["name"] == "op":
            # the stage spans cover the op span up to the tracer's own cost;
            # smoke op spans last 0.2 to 8 ms, so allow 0.2 ms of jitter
            length = span["end"] - span["start"]
            coverage = report["ops"][span["op"]]["stage_coverage"]
            uncovered = length * (1 - coverage)
            assert uncovered < 0.2 * length + 2e-4, span["op"]
    assert {s["op"] for s in spans} == {op.id for op in bench.SMOKE}
    assert all(s["end"] >= s["start"] for s in spans)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "sd-planes", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_child_output_goes_to_files_and_timeouts_kill(tmp_path):
    big = bench.run_child(
        [sys.executable, "-c", "import sys; sys.stdout.write('x' * 1000000)"],
        tmp_path)
    assert big.code == 0 and len(big.stdout) == 1000000
    slow = bench.run_child(
        [sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, 0.5)
    assert slow.timed_out and slow.wall < 10


def test_check_reports_every_kind_of_failure(tmp_path):
    runner = bench.Runner(1, tmp_path)
    op = bench.SMOKE[1]  # simulate with --transcript
    good = b'{"decode_ok":true,"match":true,"total_bits":8}\n'
    transcript = tmp_path / "t.jsonl"
    transcript.write_text('{"bits":8,"meta":[0],"payload":"ff","sender":0,'
                          '"tag":"x"}\n')

    def problems(stdout=good, stderr=b"", code=0, timed_out=False):
        child = bench.Child(wall=0.1, code=code, rss_mb=1.0,
                            timed_out=timed_out, stdout=stdout, stderr=stderr)
        return " | ".join(runner.check(op, child, str(transcript)))

    assert "pinned digest" in problems()
    assert "exit code 2" in problems(code=2)
    assert "traceback" in problems(stderr=b"Traceback (most recent call last)")
    assert "timed out" in problems(timed_out=True)
    assert "verdict" in problems(stdout=b'{"decode_ok":false,"match":true}\n')
    assert "transcript bits" not in problems()
    assert "transcript bits 8 != total_bits 9" in problems(
        stdout=b'{"decode_ok":true,"match":true,"total_bits":9}\n')
    transcript.write_text("not json\n")
    assert "does not parse" in problems()
