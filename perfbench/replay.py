"""Traced replay of one cdcsim command, run by run.py in a fresh process.

    python3 perfbench/replay.py OP_JSON SPANS_FILE

OP_JSON is {"op": id, "command": name, "flags": {"--flag": "value", ...}};
simulate ops carry "--seed" among their flags.  The replay calls the public
functions of cdcsim in the stage order of the matching cli.cmd_* function
and writes the same bytes to stdout, so run.py can check it against the
digest pinned for the real command.  Spans (name, start, end, parent, op)
and a few counts stay in memory and are written to SPANS_FILE as JSON at
exit.  Start and end are time.perf_counter() seconds; on Linux that clock
is CLOCK_MONOTONIC, shared with the parent process.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

from cdcsim.analysis import (ads_load, li_lower_bound_inequality,
                             li_lower_bound_steps, li_sandwich, ours_sd_load,
                             sweep, sweep_csv)
from cdcsim.designs import (AlmostDifferenceSet, classify_ads, develop,
                            export_ads, export_design, import_design,
                            projective_plane, ruzsa_ads)
from cdcsim.scheme import (build_scheme_ads, build_scheme_sd,
                           centralized_outputs, choose_T, generate_ivs,
                           node_view, reduce_outputs)
from cdcsim.shuffle import (decode_ads, decode_sd, measure_load,
                            shuffle_ads_golomb, shuffle_ads_pos, shuffle_sd,
                            transcript_to_jsonl)


class Tracer:
    """In-memory span recorder; one per op."""

    def __init__(self, op: str):
        self.op = op
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = {"name": name, "start": start, "end": end,
                                 "parent": parent, "op": self.op}


def _canonical_json(doc) -> str:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def simulate(flags, tr: Tracer, counts: dict) -> None:
    with tr.span("designs.build"):
        if "--plane" in flags:
            source = projective_plane(int(flags["--plane"]))
        elif "--ruzsa" in flags:
            source = ruzsa_ads(int(flags["--ruzsa"]))
        else:
            source = classify_ads([int(x) for x in flags["--ads"].split(",")],
                                  int(flags["--n"]))
            if not isinstance(source, AlmostDifferenceSet):
                raise SystemExit(f"--ads input is not an ADS: {source}")
        if isinstance(source, AlmostDifferenceSet):
            dev = develop(source)
    with tr.span("scheme.build"):
        if isinstance(source, AlmostDifferenceSet):
            s = build_scheme_ads(dev)
            formula = ads_load(source.n, source.k, source.lam)
        else:
            s = build_scheme_sd(source)
            formula = ours_sd_load(source.v, source.t)
    with tr.span("scheme.choose_T"):
        T = choose_T(s, int(flags.get("--scale", "1")))
    with tr.span("scheme.generate_ivs"):
        ivs = generate_ivs(s, int(flags["--seed"]), T)
    with tr.span("shuffle.encode"):
        if s.kind == "sd":
            transcript = shuffle_sd(s, ivs)
            decode = decode_sd
        elif s.design.source.lam >= 1:
            transcript = shuffle_ads_pos(s, ivs)
            decode = decode_ads
        else:
            transcript = shuffle_ads_golomb(s, ivs)
            decode = decode_ads
    decode_ok = True
    recovered = {}
    with tr.span("shuffle.decode"):
        for node in range(s.K):
            with tr.span("shuffle.decode_node"):
                got = decode(s, node, transcript, ivs)
            needed = node_view(s, node).needed
            if set(got) != set(needed) or any(
                    value != ivs.values[key] for key, value in got.items()):
                decode_ok = False
            recovered[node] = got
    with tr.span("scheme.reduce"):
        outputs = reduce_outputs(s, ivs, recovered)
        oracle = centralized_outputs(s, ivs)
        for per_node in outputs.values():
            for q, value in per_node.items():
                if value != oracle[q]:
                    decode_ok = False
    with tr.span("shuffle.measure"):
        measured = measure_load(s, transcript, T)
        report = {
            "r": s.r, "s": s.s, "T": T, "total_bits": transcript.total_bits,
            "L_measured": str(measured), "L_formula": str(formula),
            "match": measured == formula, "decode_ok": decode_ok,
        }
    if "--transcript" in flags:
        with tr.span("shuffle.jsonl"):
            with open(flags["--transcript"], "w") as fh:
                fh.write(transcript_to_jsonl(transcript))
    with tr.span("cli.write"):
        sys.stdout.write(_canonical_json(report))

    counts.update(K=s.K, T=T, messages=len(transcript.messages),
                  bits=transcript.total_bits, values=len(ivs.values))
    if s.kind == "sd":
        counts.update(t=s.design.t, lam=s.design.lam)


def design(flags, tr: Tracer, counts: dict) -> None:
    if "--plane" in flags:
        with tr.span("designs.build"):
            built = projective_plane(int(flags["--plane"]))
        with tr.span("designs.export"):
            text = export_design(built)
    elif "--ruzsa" in flags:
        with tr.span("designs.ruzsa"):
            built = ruzsa_ads(int(flags["--ruzsa"]))
        with tr.span("designs.export"):
            text = export_ads(built)
    else:
        with tr.span("designs.import"):
            with open(flags["--verify"]) as fh:
                raw = fh.read()
            data = json.loads(raw)
            if not (isinstance(data, dict) and "blocks" in data):
                raise SystemExit("the replay verifies design documents only")
            built = import_design(raw)
        with tr.span("designs.export"):
            text = export_design(built)
    with tr.span("cli.write"):
        sys.stdout.write(text)


def compare(flags, tr: Tracer, counts: dict) -> None:
    with tr.span("analysis.sweep"):
        rows = sweep(flags["--family"], int(flags["--min"]),
                     int(flags["--max"]))
    with tr.span("analysis.csv"):
        text = sweep_csv(rows)
    with tr.span("cli.write"):
        sys.stdout.write(text)
    counts.update(rows=len(rows))


def check_appendix(flags, tr: Tracer, counts: dict) -> None:
    checks = []
    with tr.span("analysis.appendix"):
        for p in range(int(flags.get("--min-p", "5")), int(flags["--max-p"]) + 1):
            main_check = li_lower_bound_inequality(p)
            steps = li_lower_bound_steps(p)
            sandwich = li_sandwich(p)
            checks.append({
                "p": p,
                "main": {"lhs": main_check.lhs, "rhs": main_check.rhs,
                         "holds": main_check.holds},
                "dominance": {"lhs": steps.dominance.lhs,
                              "rhs": steps.dominance.rhs,
                              "holds": steps.dominance.holds},
                "tail": {"lhs": steps.tail_bound.lhs,
                         "rhs": steps.tail_bound.rhs,
                         "holds": steps.tail_bound.holds},
                "ratios_increasing": steps.ratios_increasing,
                "final_ratio_below_half": steps.last_ratio_below_half,
                "sandwich": {"lower": str(sandwich.lower),
                             "value": str(sandwich.value),
                             "upper": str(sandwich.upper),
                             "holds": sandwich.holds},
                "holds": (main_check.holds and steps.all_hold
                          and sandwich.holds),
            })
    with tr.span("analysis.json"):
        text = _canonical_json({"all_hold": all(c["holds"] for c in checks),
                                "checks": checks})
    with tr.span("cli.write"):
        sys.stdout.write(text)


COMMANDS = {"simulate": simulate, "design": design, "compare": compare,
            "check-appendix": check_appendix}


def main(argv) -> int:
    spec = json.loads(argv[1])
    tr = Tracer(spec["op"])
    counts = {}
    with tr.span("op"):
        COMMANDS[spec["command"]](spec["flags"], tr, counts)
    sys.stdout.flush()
    with open(argv[2], "w") as fh:
        json.dump({"spans": tr.spans, "counts": counts}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
