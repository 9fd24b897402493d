"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with -s (or read the -v test lines) to see the per-criterion verdicts.
Every load comparison is exact rational equality, never approximate.
"""

import json
import time
from fractions import Fraction
from math import comb

import pytest

from cdcsim.analysis import (ads_load, jiang_load, li_load, li_sandwich,
                             li_lower_bound_inequality, li_lower_bound_steps,
                             ours_sd_load)
from cdcsim.cli import EX_OK, main
from cdcsim.designs import (SymmetricDesign, classify_ads, complement_ads,
                            develop, projective_plane, ruzsa_ads,
                            verify_symmetric_design)
from cdcsim.scheme import build_scheme_ads, build_scheme_sd

from test_analysis import symmetric_design_families
from test_designs import diff_function
from test_shuffle import run_end_to_end


def verdict(tag, ok):
    print(f"{'PASS' if ok else 'FAIL'} {tag}")
    assert ok, tag


def test_criterion_01_fano_end_to_end():
    start = time.perf_counter()
    load, _, _ = run_end_to_end(build_scheme_sd(projective_plane(2)))
    elapsed = time.perf_counter() - start
    verdict("criterion 1: Fano scheme decodes everywhere, load exactly "
            f"11/21, {elapsed:.2f}s < 1s",
            load == Fraction(11, 21) and elapsed < 1.0)


def test_criterion_02_larger_planes():
    ok = True
    note = []
    for b in (3, 5):
        start = time.perf_counter()
        d = projective_plane(b)
        load, _, _ = run_end_to_end(build_scheme_sd(d))
        elapsed = time.perf_counter() - start
        expected = Fraction((d.v - 1) ** 2 - d.t * d.v + d.v,
                            d.v * (d.v - 1))
        ok = ok and load == expected and elapsed < 10.0
        note.append(f"({d.v},{d.t},1) {elapsed:.2f}s")
    verdict("criterion 2: (13,4,1) and (31,6,1) decode with formula loads, "
            + ", ".join(note) + " each < 10s", ok)


def test_criterion_03_ads_positive_lambda():
    load, _, _ = run_end_to_end(
        build_scheme_ads(develop(classify_ads([0, 1, 3], 6))))
    ok = load == Fraction(5, 12)
    cases = [complement_ads(ruzsa_ads(p)) for p in (3, 5, 7)]
    cases.append(classify_ads([0, 1, 3], 6))
    cases.append(classify_ads([0, 1, 2, 5], 8))
    for a in cases:
        assert a.n <= 50 and 1 <= a.lam < a.k - 1
        load, _, _ = run_end_to_end(build_scheme_ads(develop(a)))
        ok = ok and load == Fraction(a.n - 1, 2 * a.n)
    verdict("criterion 3: lam >= 1 schemes hit (n-1)/(2n) exactly "
            "(5 ADS up to n = 42, (6,3,1,4) gives 5/12)", ok)


def test_criterion_04_golomb_schemes():
    load, _, _ = run_end_to_end(
        build_scheme_ads(develop(classify_ads([0, 1], 6))))
    ok = load == Fraction(2, 3)
    elapsed_11 = None
    for p in (3, 5, 7, 11):
        a = ruzsa_ads(p)
        start = time.perf_counter()
        load, _, _ = run_end_to_end(build_scheme_ads(develop(a)))
        elapsed = time.perf_counter() - start
        expected = Fraction(2 * (a.n - 1) - a.k * (a.k - 1), 2 * a.n)
        assert expected == Fraction(p * p + p - 4, 2 * (p * p - p))
        ok = ok and load == expected
        if p == 11:
            elapsed_11 = elapsed
            ok = ok and elapsed < 30.0
    verdict("criterion 4: lam = 0 schemes hit (p^2+p-4)/(2(p^2-p)) for "
            f"p in 3,5,7,11; p=11 took {elapsed_11:.2f}s < 30s", ok)


def test_criterion_05_li_load_oracle():
    ok = True
    for K in range(1, 13):
        for r in range(1, K + 1):
            for s in range(1, K + 1):
                reference = Fraction(0)
                for ell in range(max(r + 1, s), min(r + s, K) + 1):
                    reference += (Fraction(comb(K - r, K - ell)
                                           * comb(r, ell - s), comb(K, s))
                                  * Fraction(ell - r, ell - 1))
                ok = ok and li_load(K, r, s) == reference
            ok = ok and li_load(K, K, s) == 0
    verdict("criterion 5: li_load matches the big-rational oracle for all "
            "K <= 12 and vanishes at r = K", ok)


def test_criterion_06_beats_baseline_all_families():
    ok = True
    count = 0
    for b in range(2, 17):
        for label, v, t, lam in symmetric_design_families(b):
            ok = ok and ours_sd_load(v, t) < jiang_load(v, t)
            count += 1
    verdict(f"criterion 6: ours < baseline strictly on all {count} family "
            "instances with b in [2,16]", ok and count > 0)


def test_criterion_07_lower_bound_checks():
    start = time.perf_counter()
    ok = True
    for p in range(5, 32):
        steps = li_lower_bound_steps(p)
        ok = (ok and li_lower_bound_inequality(p).holds and steps.all_hold
              and Fraction(*steps.ratio_pairs[-1]) < Fraction(1, 2)
              and li_sandwich(p).holds)
    elapsed = time.perf_counter() - start
    verdict("criterion 7: master inequality, step inequalities, ratio "
            f"monotonicity, sandwich all hold for 5 <= p <= 31, "
            f"{elapsed:.2f}s < 60s", ok and elapsed < 60.0)


def test_criterion_08_ratio_trend():
    ratios = []
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        n, k = p * p - p, p - 1
        ratios.append((p, ads_load(n, k, 0) / li_load(n, k, k)))
    ok = all(a[1] > b[1] for a, b in zip(ratios, ratios[1:]))
    ok = ok and all(1 < ratio <= Fraction(5, 4)
                    for p, ratio in ratios if p >= 11)
    verdict("criterion 8: L1/L_Li strictly decreasing over the prime list "
            "and within (1, 1.25] from p = 11 on", ok)


def test_criterion_09_cli_determinism(capsys, tmp_path):
    commands = [
        ["design", "--plane", "5"],
        ["design", "--ruzsa", "7"],
        ["simulate", "--scheme", "sd", "--plane", "3"],
        ["simulate", "--scheme", "ads", "--ads", "0,1,3", "--n", "6",
         "--seed", "12345"],
        ["compare", "--family", "plane", "--min", "2", "--max", "13",
         "--decimal"],
        ["compare", "--family", "ruzsa", "--min", "3", "--max", "11"],
        ["check-appendix", "--min-p", "5", "--max-p", "13"],
    ]
    ok = True
    for argv in commands:
        code1 = main(list(argv))
        first = capsys.readouterr().out
        code2 = main(list(argv))
        second = capsys.readouterr().out
        ok = ok and code1 == code2 == EX_OK and first == second and first
    with capsys.disabled():
        verdict("criterion 9: every command is byte-deterministic across "
                "repeated runs", bool(ok))


def test_criterion_10_design_verifiers():
    ok = True
    for b in (2, 3, 5, 7, 11, 13):
        d = projective_plane(b)
        again = verify_symmetric_design(d.v, d.blocks)
        ok = ok and isinstance(again, SymmetricDesign)
        ok = ok and (again.v, again.t, again.lam) == (b * b + b + 1, b + 1, 1)
    for p in (3, 5, 7, 11, 13):
        a = ruzsa_ads(p)
        ok = ok and (a.n, a.k, a.lam, a.mu) == \
            (p * p - p, p - 1, 0, 2 * p - 3)
        zero = {x for x in range(1, a.n) if diff_function(a.D, a.n, x) == 0}
        expected = {x for x in range(1, a.n)
                    if x % p == 0 or x % (p - 1) == 0}
        ok = ok and zero == expected
    verdict("criterion 10: planes b <= 13 reverify by brute force; "
            "lam = 0 sets classify with the exact zero-difference pattern", ok)
