import json

import pytest

from cdcsim.cli import EX_OK, EX_UNSUPPORTED, EX_USAGE, EX_VERIFY, main

# well-formed JSON of the wrong shape: a design or ADS document whose
# fields have the wrong types
MALFORMED_DESIGNS = ['{"v":7,"blocks":5}', '{"v":"x","blocks":[[0]]}',
                     '{"v":7,"blocks":[[0,"a"]]}']
MALFORMED_ADS = ['{"n":6,"D":5}', '{"n":"x","D":[0,1,3]}',
                 '{"n":6,"D":[0,[1],3]}']


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_design_plane_deterministic(capsys):
    code, out1, _ = run(capsys, "design", "--plane", "2")
    assert code == EX_OK
    code, out2, _ = run(capsys, "design", "--plane", "2")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["v"] == 7
    assert len(doc["blocks"]) == 7


def test_design_ruzsa_and_ads(capsys):
    code, out, _ = run(capsys, "design", "--ruzsa", "5")
    assert code == EX_OK
    assert json.loads(out) == {"n": 20, "D": [3, 14, 16, 17]}
    code, out, _ = run(capsys, "design", "--ads", "0,1,3", "--n", "6")
    assert code == EX_OK
    assert json.loads(out) == {"n": 6, "D": [0, 1, 3]}


def test_design_rejects_non_ads(capsys):
    code, out, err = run(capsys, "design", "--ads", "0,1,2,3", "--n", "8")
    assert code == EX_VERIFY
    assert out == ""
    assert "verification failed" in err


def test_design_unsupported_parameters(capsys):
    code, _, err = run(capsys, "design", "--plane", "6")
    assert code == EX_UNSUPPORTED
    assert "prime" in err
    code, _, _ = run(capsys, "design", "--ruzsa", "9")
    assert code == EX_UNSUPPORTED


def test_design_verify_file(capsys, tmp_path):
    code, out, _ = run(capsys, "design", "--plane", "3")
    path = tmp_path / "plane.json"
    path.write_text(out)
    code, verified, _ = run(capsys, "design", "--verify", str(path))
    assert code == EX_OK
    assert verified == out
    path.write_text(out.replace("[0,1,2", "[0,1,3", 1))
    code, _, err = run(capsys, "design", "--verify", str(path))
    assert code == EX_VERIFY
    assert "verification failed" in err


def test_design_verify_unreadable_and_unparseable(capsys, tmp_path):
    code, _, _ = run(capsys, "design", "--verify", str(tmp_path / "absent"))
    assert code == EX_USAGE
    bad = tmp_path / "bad.json"
    for text in ["{not json"] + MALFORMED_DESIGNS + MALFORMED_ADS:
        bad.write_text(text)
        code, out, err = run(capsys, "design", "--verify", str(bad))
        assert code == EX_VERIFY, text
        assert out == "" and "verification failed" in err, text


def test_usage_errors(capsys):
    assert run(capsys, "bogus")[0] == EX_USAGE
    assert run(capsys)[0] == EX_USAGE
    assert run(capsys, "design")[0] == EX_USAGE
    assert run(capsys, "design", "--ads", "0,1")[0] == EX_USAGE  # no --n
    assert run(capsys, "simulate", "--scheme", "sd", "--ruzsa", "5")[0] == \
        EX_USAGE
    assert run(capsys, "simulate", "--scheme", "ads", "--plane", "2")[0] == \
        EX_USAGE
    assert run(capsys, "compare", "--family", "plane", "--min", "5",
               "--max", "3")[0] == EX_USAGE


def test_simulate_fano(capsys):
    code, out1, _ = run(capsys, "simulate", "--scheme", "sd", "--plane", "2")
    assert code == EX_OK
    report = json.loads(out1)
    assert set(report) == {"r", "s", "T", "total_bits", "L_measured",
                           "L_formula", "match", "decode_ok"}
    assert report == {"r": 3, "s": 4, "T": 6, "total_bits": 154,
                      "L_measured": "11/21", "L_formula": "11/21",
                      "match": True, "decode_ok": True}
    _, out2, _ = run(capsys, "simulate", "--scheme", "sd", "--plane", "2")
    assert out1 == out2


def test_simulate_ads_inline(capsys):
    code, out, _ = run(capsys, "simulate", "--scheme", "ads",
                       "--ads", "0,1,3", "--n", "6", "--seed", "9")
    assert code == EX_OK
    report = json.loads(out)
    assert report["match"] and report["decode_ok"]
    assert report["L_measured"] == "5/12"


def test_simulate_golomb_with_artifacts(capsys, tmp_path):
    transcript = tmp_path / "shuffle.jsonl"
    scheme = tmp_path / "scheme.json"
    code, out, _ = run(capsys, "simulate", "--scheme", "ads", "--ruzsa", "3",
                       "--transcript", str(transcript),
                       "--dump-scheme", str(scheme))
    assert code == EX_OK
    assert json.loads(out)["L_measured"] == "2/3"
    lines = transcript.read_text().splitlines()
    assert all(set(json.loads(line)) ==
               {"sender", "tag", "meta", "bits", "payload"} for line in lines)
    assert json.loads(scheme.read_text())["kind"] == "ads"
    # same seed, same bytes
    again = tmp_path / "again.jsonl"
    run(capsys, "simulate", "--scheme", "ads", "--ruzsa", "3",
        "--transcript", str(again))
    assert again.read_text() == transcript.read_text()


def test_simulate_from_design_file(capsys, tmp_path):
    _, out, _ = run(capsys, "design", "--plane", "2")
    path = tmp_path / "fano.json"
    path.write_text(out)
    code, out, _ = run(capsys, "simulate", "--scheme", "sd",
                       "--design", str(path), "--scale", "2")
    assert code == EX_OK
    report = json.loads(out)
    assert report["T"] == 12 and report["match"]
    # kind mismatch between flag and file content
    code, _, _ = run(capsys, "simulate", "--scheme", "ads",
                     "--design", str(path))
    assert code == EX_USAGE
    for scheme, texts in (("sd", MALFORMED_DESIGNS), ("ads", MALFORMED_ADS)):
        for text in texts:
            path.write_text(text)
            code, out, err = run(capsys, "simulate", "--scheme", scheme,
                                 "--design", str(path))
            assert code == EX_VERIFY, text
            assert out == "" and "verification failed" in err, text


def test_simulate_unsupported(capsys):
    # a valid plane whose field degree is past the supported ceiling
    code, _, err = run(capsys, "simulate", "--scheme", "sd", "--plane", "31")
    assert code == EX_UNSUPPORTED
    assert err


def test_compare_csv(capsys, tmp_path):
    code, out1, _ = run(capsys, "compare", "--family", "plane",
                        "--min", "2", "--max", "5")
    assert code == EX_OK
    lines = out1.splitlines()
    assert lines[0].startswith("family,param,K,")
    assert len(lines) == 4
    _, out2, _ = run(capsys, "compare", "--family", "plane",
                     "--min", "2", "--max", "5")
    assert out1 == out2
    # no primes in range: header only
    code, out, _ = run(capsys, "compare", "--family", "ruzsa",
                       "--min", "14", "--max", "16")
    assert code == EX_OK
    assert out.splitlines() == [lines[0]]
    out_file = tmp_path / "sweep.csv"
    run(capsys, "compare", "--family", "plane", "--min", "2", "--max", "3",
        "--decimal", "--out", str(out_file))
    assert out_file.read_text().splitlines()[0].endswith("ratio_ours_li_dec")


def test_check_appendix(capsys):
    code, out1, err = run(capsys, "check-appendix", "--min-p", "5",
                          "--max-p", "11")
    assert code == EX_OK
    assert err == ""
    doc = json.loads(out1)
    assert doc["all_hold"] is True
    assert [c["p"] for c in doc["checks"]] == [5, 6, 7, 8, 9, 10, 11]
    assert all(c["holds"] for c in doc["checks"])
    _, out2, _ = run(capsys, "check-appendix", "--min-p", "5", "--max-p", "11")
    assert out1 == out2


def test_check_appendix_clamps_low_p(capsys):
    code, out, err = run(capsys, "check-appendix", "--min-p", "2",
                         "--max-p", "6")
    assert code == EX_OK
    assert "clamping" in err
    assert [c["p"] for c in json.loads(out)["checks"]] == [5, 6]
