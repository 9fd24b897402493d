"""What a command loads, and the exit-code contract, each seen from a
fresh interpreter, where no earlier import has loaded anything yet."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdcsim
from cdcsim import cli
from cdcsim.cli import EX_OK, EX_UNSUPPORTED, EX_USAGE, EX_VERIFY

SRC = str(Path(cdcsim.__file__).resolve().parent.parent)

# runs main(argv), then prints the modules it loaded beyond what the
# interpreter had before
FOOTPRINT = """
import sys
before = set(sys.modules)
from cdcsim.cli import main
main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - before)))
"""


def fresh_python(*args, cwd=None, digits=None):
    """Run a fresh interpreter on args; its PYTHONINTMAXSTRDIGITS is
    digits, or unset when digits is None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    if digits is not None:
        env["PYTHONINTMAXSTRDIGITS"] = digits
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)


def test_importing_the_cli_loads_no_module_of_the_package():
    done = fresh_python("-c", FOOTPRINT.replace("main(sys.argv[1:])", ""))
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert {m for m in loaded if m.startswith("cdcsim.")} == {"cdcsim.cli"}
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("argv,unloaded", [
    (["design", "--plane", "2"], {"scheme", "shuffle", "analysis"}),
    (["design", "--ruzsa", "5"], {"scheme", "shuffle", "analysis"}),
    (["compare", "--family", "plane", "--max", "5"],
     {"designs", "scheme", "shuffle"}),
    (["check-appendix", "--max-p", "6"], {"designs", "scheme", "shuffle"}),
    (["simulate", "--scheme", "sd", "--plane", "2"], set()),
    (["simulate", "--scheme", "ads", "--ruzsa", "5"], set()),
], ids=["design-plane", "design-ruzsa", "compare", "check-appendix",
        "simulate-sd", "simulate-ads"])
def test_a_command_loads_only_what_it_runs(tmp_path, argv, unloaded):
    out = str(tmp_path / "out")
    done = fresh_python("-c", FOOTPRINT, *argv, "--out", out)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert Path(out).stat().st_size > 0
    assert not {f"cdcsim.{m}" for m in unloaded} & loaded
    assert not {"dataclasses", "hashlib", "_hashlib"} & loaded


# runs each command twice with the cyclic collector off, and prints its
# exit code and what a collection finds after the second run: the first
# run's imports may leave cycles, a command's own data must not
GC_PREMISE = """
import gc, json, sys
gc.disable()
from cdcsim.cli import main
found = []
for argv in json.loads(sys.argv[1]):
    main(argv)
    gc.collect()
    found.append([main(argv), gc.collect()])
print(json.dumps(found))
"""


def test_a_command_leaves_no_cycle_for_the_collector(tmp_path):
    """entry() turns the cyclic collector off, which loses nothing only
    if no command, on success or on any exit code, leaves a reference
    cycle behind."""
    runs = [
        (["simulate", "--scheme", "sd", "--plane", "2", "--transcript", "t1",
          "--dump-scheme", "d1", "--out", "o1"], EX_OK),
        (["simulate", "--scheme", "ads", "--ruzsa", "5", "--transcript",
          "t2", "--dump-scheme", "d2", "--out", "o2"], EX_OK),
        (["design", "--plane", "2", "--out", "p2.json"], EX_OK),
        (["design", "--verify", "p2.json", "--out", "o3"], EX_OK),
        (["compare", "--family", "ruzsa", "--max", "13", "--decimal",
          "--out", "o4"], EX_OK),
        (["check-appendix", "--max-p", "8", "--out", "o5"], EX_OK),
        (["design", "--ads", "0,1,2", "--n", "6"], EX_VERIFY),
        (["simulate", "--scheme", "sd", "--plane", "31"], EX_UNSUPPORTED),
        (["design", "--plane", "2", "--ruzsa", "3"], EX_USAGE),
    ]
    done = fresh_python("-c", GC_PREMISE, json.dumps([a for a, _ in runs]),
                        cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[code, 0] for _, code in runs]


def test_entry_runs_main_without_the_cyclic_collector(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()) or 0)
    enabled = gc.isenabled()
    try:
        with pytest.raises(SystemExit) as exit_:
            cli.entry()
    finally:
        if enabled:
            gc.enable()
    assert (seen, exit_.value.code) == ([False], EX_OK)


@pytest.mark.parametrize("digits", ["640", "0"])
def test_entry_prints_whatever_the_int_digit_limit(tmp_path, digits):
    """entry() fixes the int-to-str limit at CPython's default 4300
    digits, against which analysis.MAX_PRINTED is measured: under any
    PYTHONINTMAXSTRDIGITS the largest outputs print the same bytes, and
    the first plane past its cap and a document with a 5000-digit v are
    refused the same way."""
    (tmp_path / "v5000.json").write_text(
        '{"v":' + "1" * 5000 + ',"blocks":[]}')
    for argv, code in (
            (("compare", "--family", "plane", "--min", "661", "--max", "661"),
             EX_OK),
            (("check-appendix", "--min-p", "1106", "--max-p", "1106"), EX_OK),
            (("compare", "--family", "plane", "--min", "673", "--max", "673"),
             EX_UNSUPPORTED),
            (("design", "--verify", "v5000.json"), EX_VERIFY)):
        default = fresh_python("-m", "cdcsim", *argv, cwd=tmp_path)
        done = fresh_python("-m", "cdcsim", *argv, cwd=tmp_path,
                            digits=digits)
        assert default.returncode == code, (argv, default.stderr)
        assert (done.returncode, done.stdout, done.stderr) == (
            code, default.stdout, default.stderr), argv


# raises the error named on its command line from inside a command, for
# the mapped error no argv reaches (the CLI checks every range that
# analysis would reject) and for an error main does not map
RAISE_IN_COMMAND = """
import importlib, sys
from cdcsim import cli
module, name = sys.argv[1:]
def command(args):
    raise getattr(importlib.import_module(module), name)("raised")
cli.cmd_compare = command
sys.exit(cli.main(["compare", "--family", "plane"]))
"""


# every exported name, read first from the package root in a fresh
# interpreter, is its module's object; a submodule imports from the root
PACKAGE_NAMES = """
import importlib, sys
import cdcsim
assert not [m for m in sys.modules if m.startswith("cdcsim.")]
from cdcsim import shuffle
assert shuffle is sys.modules["cdcsim.shuffle"]
for name in cdcsim.__all__:
    value = getattr(cdcsim, name)
    module = importlib.import_module("cdcsim." + cdcsim._HOME[name])
    assert value is getattr(module, name), name
cdcsim.no_such_name
"""


def test_exit_codes_and_package_names_from_a_fresh_interpreter(tmp_path):
    """Through python -m cdcsim, each mapped error class exits with its
    documented code and message, as do a usage error and a success; an
    unmapped ValueError still escapes.  The package root resolves every
    exported name and nothing else."""
    for argv, code, stderr in (
            (("design", "--ads", "0,1,2", "--n", "6"), EX_VERIFY,
             "verification failed: difference function"),
            (("design", "--plane", "4"), EX_UNSUPPORTED,
             "unsupported: projective planes"),
            (("simulate", "--scheme", "sd", "--plane", "2", "--scale", "0"),
             EX_UNSUPPORTED, "unsupported: scale"),
            (("simulate", "--scheme", "sd", "--plane", "31"), EX_UNSUPPORTED,
             "unsupported: extension degree"),
            (("design", "--plane", "2", "--ruzsa", "3"), EX_USAGE,
             "cdcsim design: error: argument --ruzsa"),
            (("design", "--plane", "2"), EX_OK, "")):
        done = fresh_python("-m", "cdcsim", *argv, cwd=tmp_path)
        assert done.returncode == code, (argv, done.stderr)
        assert done.stderr.startswith(stderr), (argv, done.stderr)
        assert "Traceback" not in done.stderr, argv

    done = fresh_python("-c", RAISE_IN_COMMAND, "cdcsim.analysis",
                        "AnalysisDomainError")
    assert (done.returncode, done.stderr) == (EX_UNSUPPORTED,
                                              "unsupported: raised\n")
    done = fresh_python("-c", RAISE_IN_COMMAND, "builtins", "ValueError")
    assert done.returncode == 1
    assert done.stderr.rstrip().endswith("ValueError: raised")

    done = fresh_python("-c", PACKAGE_NAMES)
    assert done.stderr.rstrip().endswith(
        "AttributeError: module 'cdcsim' has no attribute 'no_such_name'")
