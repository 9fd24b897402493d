"""Command-line front end.

Four subcommands: design (build or verify a design), simulate (run one
scheme end to end and check it against the formulas), compare (load sweep
as CSV), check-appendix (integer inequality checks behind the lower
bound).  All output is canonical and byte-stable for a given invocation.

Exit codes: 0 success, 2 verification failure, 3 valid but unsupported
parameters, 64 usage error.

Each command imports only the modules it runs: design loads designs and
gf, compare and check-appendix load analysis and gf, and only simulate
loads scheme and shuffle.  No command loads hashlib, so none maps
OpenSSL: the IV stream's keyed BLAKE2b is CPython's builtin _blake2.
Check a command's start-up with python -X importtime -m cdcsim <command>.

entry(), the console script and python -m cdcsim, runs main() with the
cyclic garbage collector off.  A command's data (value table,
transcript, decode memo, decodes, reduce outputs) holds no reference
cycle, so reference counting frees all of it: the collector's passes,
up to 166 in one ADS run, only ever freed the same 73 objects made at
import time.  It also sets the int-to-str digit limit to 4300, CPython's
default, which analysis.MAX_PRINTED assumes.  The process exits when
main() returns.  Library callers of main() keep their collector and
their limit.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING, Iterable, List, Optional, Union

if TYPE_CHECKING:
    from .designs import AlmostDifferenceSet, SymmetricDesign

EX_OK = 0
EX_VERIFY = 2
EX_UNSUPPORTED = 3
EX_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _write_out(text: Union[str, Iterable[str]], path: Optional[str]) -> None:
    """Write text, or an iterable of text chunks, to path or stdout."""
    chunks = (text,) if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        try:
            with open(path, "w") as fh:
                fh.writelines(chunks)
        except OSError as e:
            raise _UsageError(f"cannot write {path}: {e.strerror}")


def _parse_csv_ints(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise _UsageError(f"expected a comma-separated integer list, got {text!r}")


def _canonical_json(doc) -> str:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


_DOCUMENT_KINDS = {"sd": "a symmetric design", "ads": "an ADS"}


def _source(args, path: Optional[str], scheme: Optional[str] = None,
            ) -> Union[SymmetricDesign, AlmostDifferenceSet]:
    """Build, or read and verify, the design or ADS the source flags name.

    --plane, --ruzsa and --ads (with --n) build; otherwise the document at
    path is read and told apart by its keys.  With scheme given, a source
    of the other kind is a usage error, reported before anything is built
    or verified.  Nothing here sizes a run: simulate leaves that to
    choose_T, whatever the source.
    """
    from .designs import (DesignVerificationError, ads_from_doc,
                          design_from_doc, projective_plane, ruzsa_ads)

    if args.ads is not None and args.n is None:
        raise _UsageError("--ads requires --n")
    if args.n is not None and args.ads is None:
        raise _UsageError("--n only makes sense with --ads")
    if args.plane is not None:
        kind, what = "sd", "--plane builds an sd scheme"
    elif args.ruzsa is not None:
        kind, what = "ads", "--ruzsa builds an ads scheme"
    elif args.ads is not None:
        kind, what = "ads", "--ads builds an ads scheme"
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as e:
            raise _UsageError(f"cannot read {path}: {e.strerror}")
        except (ValueError, RecursionError) as e:  # syntax, bytes, depth, int
            raise DesignVerificationError(f"{path} is not JSON: {e}")
        if isinstance(data, dict) and "blocks" in data:
            kind = "sd"
        elif isinstance(data, dict) and "D" in data:
            kind = "ads"
        else:
            raise DesignVerificationError(
                f"{path} is neither a design nor an ADS document")
        what = f"{path} holds {_DOCUMENT_KINDS[kind]}"
    if scheme is not None and scheme != kind:
        raise _UsageError(f"{what}, got --scheme {scheme}")
    if args.plane is not None:
        return projective_plane(args.plane)
    if args.ruzsa is not None:
        return ruzsa_ads(args.ruzsa)
    if args.ads is not None:  # classified as the ADS document it spells out
        data = {"n": args.n, "D": _parse_csv_ints(args.ads)}
    return design_from_doc(data) if kind == "sd" else ads_from_doc(data)


def cmd_design(args) -> int:
    from .designs import SymmetricDesign, export_ads, export_design

    source = _source(args, args.verify)
    _write_out(export_design(source) if isinstance(source, SymmetricDesign)
               else export_ads(source), args.out)
    return EX_OK


def cmd_simulate(args) -> int:
    from .scheme import Scheme, choose_T, scheme_to_json
    from .shuffle import run, transcript_chunks

    s = Scheme(_source(args, args.design, args.scheme))
    T = choose_T(s, args.scale)
    result = run(s, args.seed, T)
    report = {
        "r": s.r, "s": s.s, "T": T,
        "total_bits": result.transcript.total_bits,
        "L_measured": str(result.load), "L_formula": str(s.formula),
        "match": result.load == s.formula, "decode_ok": result.decode_ok,
    }
    if args.transcript is not None:
        _write_out(transcript_chunks(result.transcript), args.transcript)
    if args.dump_scheme is not None:
        _write_out(scheme_to_json(s), args.dump_scheme)
    _write_out(_canonical_json(report), args.out)
    return EX_OK if report["match"] and result.decode_ok else EX_VERIFY


def cmd_compare(args) -> int:
    from .analysis import sweep, sweep_csv

    if args.min > args.max:
        raise _UsageError(f"--min {args.min} exceeds --max {args.max}")
    rows = sweep(args.family, args.min, args.max)
    if not rows:
        print(f"warning: no usable parameters for family {args.family} in "
              f"[{args.min}, {args.max}]", file=sys.stderr)
    _write_out(sweep_csv(rows, decimal=args.decimal), args.out)
    return EX_OK


def cmd_check_appendix(args) -> int:
    from .analysis import (check_printed, li_lower_bound_inequality,
                           li_lower_bound_steps, li_sandwich)

    min_p, max_p = args.min_p, args.max_p
    if min_p < 5:
        print(f"warning: clamping --min-p {min_p} to 5, checks are defined "
              f"for p >= 5", file=sys.stderr)
        min_p = 5
    if min_p > max_p:
        raise _UsageError(f"--min-p {min_p} exceeds --max-p {max_p}")
    check_printed("p", max_p)
    checks = []
    for p in range(min_p, max_p + 1):
        main_check = li_lower_bound_inequality(p)
        steps = li_lower_bound_steps(p)
        sandwich = li_sandwich(p)
        holds = main_check.holds and steps.all_hold and sandwich.holds
        checks.append({
            "p": p,
            "main": main_check._asdict(),
            "dominance": steps.dominance._asdict(),
            "tail": steps.tail_bound._asdict(),
            "ratios_increasing": steps.ratios_increasing,
            "final_ratio_below_half": steps.last_ratio_below_half,
            "sandwich": {"lower": str(sandwich.lower),
                         "value": str(sandwich.value),
                         "upper": str(sandwich.upper),
                         "holds": sandwich.holds},
            "holds": holds,
        })
    all_hold = all(c["holds"] for c in checks)
    _write_out(_canonical_json({"all_hold": all_hold, "checks": checks}),
               args.out)
    return EX_OK if all_hold else EX_VERIFY


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built on first use and shared by every call."""
    parser = _Parser(prog="cdcsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_design = sub.add_parser(
        "design", help="build or verify a design and print it canonically")
    source = p_design.add_mutually_exclusive_group(required=True)
    source.add_argument("--plane", type=int, metavar="B",
                        help="projective plane of prime order B <= 101")
    source.add_argument("--ruzsa", type=int, metavar="P",
                        help="lam = 0 almost difference set for prime P")
    source.add_argument("--ads", metavar="CSV",
                        help="comma-separated subset of Z_n (with --n)")
    source.add_argument("--verify", metavar="FILE",
                        help="verify a design or ADS JSON document")
    p_design.add_argument("--n", type=int, help="group order for --ads")
    p_design.add_argument("--out", metavar="FILE", help="write here instead "
                          "of stdout")
    p_design.set_defaults(func=cmd_design)

    p_sim = sub.add_parser(
        "simulate", help="run one scheme bit-exactly and report its load")
    p_sim.add_argument("--scheme", choices=("sd", "ads"), required=True)
    source = p_sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--plane", type=int, metavar="B")
    source.add_argument("--ruzsa", type=int, metavar="P")
    source.add_argument("--ads", metavar="CSV")
    source.add_argument("--design", metavar="FILE",
                        help="design or ADS JSON document")
    p_sim.add_argument("--n", type=int, help="group order for --ads")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--scale", type=int, default=1,
                       help="multiply the minimal bit width T")
    p_sim.add_argument("--transcript", metavar="FILE",
                       help="write the shuffle transcript as JSON lines")
    p_sim.add_argument("--dump-scheme", metavar="FILE",
                       help="write the scheme description as JSON")
    p_sim.add_argument("--out", metavar="FILE")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="load-comparison sweep as CSV")
    p_cmp.add_argument("--family", choices=("plane", "ruzsa"), required=True)
    p_cmp.add_argument("--min", type=int, default=2)
    p_cmp.add_argument("--max", type=int, default=13)
    p_cmp.add_argument("--decimal", action="store_true",
                       help="append 12-digit decimal columns")
    p_cmp.add_argument("--out", metavar="FILE")
    p_cmp.set_defaults(func=cmd_compare)

    p_chk = sub.add_parser(
        "check-appendix",
        help="integer checks behind the lower-bound inequalities")
    p_chk.add_argument("--min-p", type=int, default=5)
    p_chk.add_argument("--max-p", type=int, default=31)
    p_chk.add_argument("--out", metavar="FILE")
    p_chk.set_defaults(func=cmd_check_appendix)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise _UsageError(f"{parser.prog}: error: a command is required")
        return args.func(args)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return EX_USAGE
    except ValueError as e:
        # every mapped error is a ValueError; importing the classes only
        # here keeps a command from loading modules it does not run
        from .analysis import AnalysisDomainError
        from .designs import DesignParameterError, DesignVerificationError
        from .gf import FieldError
        from .scheme import SchemeParameterError

        if isinstance(e, DesignVerificationError):
            print(f"verification failed: {e}", file=sys.stderr)
            return EX_VERIFY
        if isinstance(e, (DesignParameterError, SchemeParameterError,
                          FieldError, AnalysisDomainError)):
            print(f"unsupported: {e}", file=sys.stderr)
            return EX_UNSUPPORTED
        raise


def entry() -> None:
    import gc  # here, so that importing cdcsim.cli loads nothing more

    gc.disable()  # see the module docstring
    if hasattr(sys, "set_int_max_str_digits"):  # CPython 3.10.7 and later
        sys.set_int_max_str_digits(4300)
    sys.exit(main())
