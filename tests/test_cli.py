import contextlib
import hashlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcsim import analysis, designs, scheme
from cdcsim.cli import EX_OK, EX_UNSUPPORTED, EX_USAGE, EX_VERIFY, main
from cdcsim.designs import complement_ads, export_ads, ruzsa_ads

# well-formed JSON of the wrong shape: a design or ADS document whose
# fields have the wrong types
MALFORMED_DESIGNS = ['{"v":7,"blocks":5}', '{"v":"x","blocks":[[0]]}',
                     '{"v":7,"blocks":[[0,"a"]]}']
MALFORMED_ADS = ['{"n":6,"D":5}', '{"n":"x","D":[0,1,3]}',
                 '{"n":6,"D":[0,[1],3]}']
# well-typed documents with bad content: a missing key, an element
# outside Z_n, a repeated element
BAD_CONTENT = ['{"blocks":[[0,1]]}', '{"n":6,"D":[0,9]}',
               '{"n":6,"D":[0,0,1]}']
# bytes the JSON parser cannot take: nesting past its recursion limit,
# a byte that is not UTF-8, and integers past CPython's default
# 4300-digit limit for reading one
NOT_JSON = [b"[" * 1500 + b"]" * 1500, b'{"n":6,"D":' + b"[" * 1500,
            b'{"n":6,"D":[0,1,3]}\xff',
            b'{"v":' + b"1" * 5000 + b',"blocks":[]}',
            b'{"n":7,"D":[' + b"1" * 5000 + b"]}"]


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


def test_design_ads_in_a_huge_group(capsys, tmp_path):
    """(n, 3, 0, n - 7) classifies from its pairwise differences, so a
    group of 10^9 elements costs no more than a small one."""
    expected = '{"D":[0,1,3],"n":1000000000}\n'
    code, out, _ = run(capsys, "design", "--ads", "0,1,3", "--n", "1000000000")
    assert code == EX_OK
    assert out == expected
    path = tmp_path / "ads.json"
    path.write_text('{"n":1000000000,"D":[3,0,1]}')
    code, out, _ = run(capsys, "design", "--verify", str(path))
    assert code == EX_OK
    assert out == expected


def test_design_refuses_a_classification_past_its_differences(capsys,
                                                               monkeypatch):
    """An ADS whose k(k - 1) differences pass MAX_DIFFERENCES exits 3 with
    no output: --ruzsa before its D is built, --ads before its differences
    are counted.  The bound is lowered here so that a broken check costs
    one small run: ruzsa 11 counts 10 * 9 = 90 differences."""
    D = ",".join(map(str, ruzsa_ads(11).D))
    monkeypatch.setattr(designs, "MAX_DIFFERENCES", 89)
    code, out, err = run(capsys, "design", "--ruzsa", "11")
    assert (code, out) == (EX_UNSUPPORTED, "")
    assert "p=11 gives k(k-1) > 89" in err
    code, out, err = run(capsys, "design", "--ads", D, "--n", "110")
    assert (code, out) == (EX_UNSUPPORTED, "")
    assert "k(k-1)=90 > 89" in err
    monkeypatch.setattr(designs, "MAX_DIFFERENCES", 90)  # inclusive
    assert run(capsys, "design", "--ruzsa", "11")[0] == EX_OK
    assert run(capsys, "design", "--ads", D, "--n", "110")[0] == EX_OK


def test_design_rejects_non_ads(capsys):
    for argv in (("design", "--ads", "0,1,2,3", "--n", "8"),
                 ("design", "--ads", "0,9", "--n", "6"),
                 ("simulate", "--scheme", "ads", "--ads", "0,9", "--n", "6")):
        code, out, err = run(capsys, *argv)
        assert code == EX_VERIFY, argv
        assert out == ""
        assert err.startswith("verification failed: "), argv


def test_design_unsupported_parameters(capsys):
    code, _, err = run(capsys, "design", "--plane", "6")
    assert code == EX_UNSUPPORTED
    assert "prime" in err
    code, _, _ = run(capsys, "design", "--ruzsa", "9")
    assert code == EX_UNSUPPORTED


def test_design_plane_past_the_order_cap(capsys):
    """The smallest prime past MAX_PLANE_ORDER exits 3 and prints
    nothing."""
    code, out, err = run(capsys, "design", "--plane", "103")
    assert (code, out) == (EX_UNSUPPORTED, "")
    assert "up to order 101, got 103" in err


def test_design_plane_stdout_goldens(capsys, tmp_path):
    """Every stdout byte of design --plane 31 and 43, and of design
    --verify of the plane-31 document, pinned: a change to how lines are
    listed or pairs checked must not move one."""
    digests = {}
    for b in ("31", "43"):
        code, out, err = run(capsys, "design", "--plane", b)
        assert (code, err) == (EX_OK, "")
        digests[b] = hashlib.sha256(out.encode()).hexdigest()
        if b == "31":
            path = tmp_path / "plane31.json"
            path.write_text(out)
            code, out, err = run(capsys, "design", "--verify", str(path))
            assert (code, err) == (EX_OK, "")
            digests["verify31"] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == {
        "31": "35f98458efa41f95c06d8129f0d444d8c184d526274c4af615714c62a40d0ba0",
        "43": "4198d90fc569325d99fbd5670156ce57b8ac4eb4f2f5f3572764470fbd8ee5d9",
        "verify31":
            "35f98458efa41f95c06d8129f0d444d8c184d526274c4af615714c62a40d0ba0",
    }


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
    for text in (["{not json"] + MALFORMED_DESIGNS + MALFORMED_ADS
                 + BAD_CONTENT):
        bad.write_text(text)
        code, out, err = run(capsys, "design", "--verify", str(bad))
        assert code == EX_VERIFY, text
        assert out == "" and "verification failed" in err, text
    for raw in NOT_JSON:
        bad.write_bytes(raw)
        for argv in (("design", "--verify", str(bad)),
                     ("simulate", "--scheme", "ads", "--design", str(bad))):
            code, out, err = run(capsys, *argv)
            assert code == EX_VERIFY, (raw[:20], argv)
            assert out == "" and err.startswith(
                f"verification failed: {bad} is not JSON: "), (raw[:20], argv)


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    path = str(tmp_path / "absent" / "x")
    ads = ("--ads", "0,1,3", "--n", "6")
    for argv in (("design", *ads, "--out", path),
                 ("simulate", "--scheme", "ads", *ads, "--transcript", path),
                 ("simulate", "--scheme", "ads", *ads, "--dump-scheme", path)):
        code, _, err = run(capsys, *argv)
        assert code == EX_USAGE, argv
        assert err.startswith(f"cannot write {path}: "), argv


def test_usage_errors(capsys):
    assert run(capsys, "bogus")[0] == EX_USAGE
    assert run(capsys)[0] == EX_USAGE
    assert run(capsys, "design")[0] == EX_USAGE
    assert run(capsys, "design", "--ads", "0,1")[0] == EX_USAGE  # no --n
    assert run(capsys, "design", "--plane", "2", "--n", "5")[0] == EX_USAGE
    assert run(capsys, "simulate", "--scheme", "sd", "--plane", "2",
               "--n", "5")[0] == EX_USAGE  # --n without --ads
    assert run(capsys, "simulate", "--scheme", "sd", "--ruzsa", "5")[0] == \
        EX_USAGE
    assert run(capsys, "simulate", "--scheme", "ads", "--plane", "2")[0] == \
        EX_USAGE
    assert run(capsys, "compare", "--family", "plane", "--min", "5",
               "--max", "3")[0] == EX_USAGE
    # empty once --min-p is clamped up to 5
    assert run(capsys, "check-appendix", "--min-p", "1",
               "--max-p", "3")[0] == EX_USAGE


# small integers and short lists keep classification and any simulation
# of a valid document fast
_INTS = st.integers(-3, 40)
_JSON = st.recursive(
    st.none() | st.booleans() | _INTS | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=10)
_INT_LISTS = st.lists(_INTS, max_size=8)
_DOCUMENTS = (
    _JSON
    | st.fixed_dictionaries({"v": _INTS | _JSON,
                             "blocks": st.lists(_INT_LISTS, max_size=8) | _JSON})
    | st.fixed_dictionaries({"n": _INTS | _JSON, "D": _INT_LISTS | _JSON}))


@settings(max_examples=50, deadline=None)
@given(_DOCUMENTS)
def test_documents_keep_the_exit_code_contract(tmp_path_factory, doc):
    """Any JSON document exits 0, 2, 3 or 64, and no exception escapes."""
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(json.dumps(doc))
    for argv in (("design", "--verify", str(path)),
                 ("simulate", "--scheme", "sd", "--design", str(path)),
                 ("simulate", "--scheme", "ads", "--design", str(path))):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        assert code in (EX_OK, EX_VERIFY, EX_UNSUPPORTED, EX_USAGE), argv


def _flag(name, values=None):
    """One flag, with a value drawn from values when it takes one."""
    if values is None:
        return st.just((name,))
    return values.map(lambda value: (name, str(value)))


def _any_of(*flags):
    """The tokens of any subset of flags, in any order."""
    return st.tuples(*(st.none() | flag for flag in flags)).flatmap(
        lambda picked: st.permutations([f for f in picked if f is not None])
    ).map(lambda chosen: tuple(token for flag in chosen for token in flag))


def _command(name, *flags, always=()):
    """name, the tokens of each of always, then any subset of flags."""
    return st.tuples(*always, _any_of(*flags)).map(
        lambda parts: [name] + [token for part in parts for token in part])


def _sources(document_flag):
    """One source, no source, or any mix of the source flags."""
    plane = _flag("--plane", st.integers(-3, 5))
    ruzsa = _flag("--ruzsa", st.integers(-3, 7))
    ads = _flag("--ads", _ADS_CSV)
    n = _flag("--n", _SMALL)
    document = _flag(document_flag, _DOCUMENT)
    return (plane | ruzsa | document
            | st.tuples(ads, n).map(lambda pair: pair[0] + pair[1])
            | _any_of(plane, ruzsa, ads, n, document))


# every subcommand and source flag, with small values, so that nothing
# large is built or simulated; "@name" stands for a document path
_SMALL = st.integers(-3, 12)
_ADS_CSV = st.lists(st.integers(-3, 12).map(str)
                    | st.sampled_from(["", " ", "x", "1.5"]),
                    max_size=4).map(",".join)
_DOCUMENT = st.sampled_from(["@fano", "@ads", "@missing"])
# scales past 64: choose_T refuses each (exit 3) before any table is drawn
_REFUSED_SCALES = [65, 2 ** 20, 10 ** 8]
# --max past both compare caps and --max-p past check-appendix's: each is
# refused (exit 3) before any term is computed
_REFUSED_MAX = [1104, 2 ** 20, 10 ** 8]
_REFUSED_MAX_P = [1107, 2 ** 20, 10 ** 8]
_ARGV = (
    _command("design", always=[_sources("--verify")])
    | _command("simulate", _flag("--seed", _SMALL),
               _flag("--scale", st.integers(-3, 2)
                     | st.sampled_from(_REFUSED_SCALES)),
               always=[_flag("--scheme", st.sampled_from(["sd", "ads", "x"])),
                       _sources("--design")])
    | _command("compare",
               _flag("--family", st.sampled_from(["plane", "ruzsa"])),
               _flag("--min", _SMALL),
               _flag("--max", _SMALL | st.sampled_from(_REFUSED_MAX)),
               _flag("--decimal"))
    | _command("check-appendix", _flag("--min-p", _SMALL),
               _flag("--max-p", _SMALL | st.sampled_from(_REFUSED_MAX_P)))
    | _command("bogus"))


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A valid design document, a valid ADS document and a missing path."""
    root = tmp_path_factory.mktemp("documents")
    (root / "fano.json").write_text(
        '{"v":7,"blocks":[[0,1,2],[0,3,4],[0,5,6],[1,3,5],[1,4,6],'
        '[2,3,6],[2,4,5]]}')
    (root / "ads.json").write_text('{"n":6,"D":[0,1,3]}')
    return {f"@{name}": str(root / f"{name}.json")
            for name in ("fano", "ads", "missing")}


@settings(max_examples=300, deadline=None)
@given(_ARGV)
def test_argv_keeps_the_exit_code_contract(documents, argv):
    """Any argv of the grammar exits 0, 2, 3 or 64, and no exception
    escapes: MissingMessageError and IncompleteRecoveryError included."""
    argv = [documents.get(token, token) for token in argv]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EX_OK, EX_VERIFY, EX_UNSUPPORTED, EX_USAGE), argv


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


def test_simulate_sd_transcript(capsys, tmp_path):
    """An sd transcript holds one line per coding group: each of the K
    nodes sends its diagonal group and one group per file of its block,
    K * (1 + t) = 28 lines for Fano, whose bits sum to total_bits."""
    transcript = tmp_path / "shuffle.jsonl"
    code, out, _ = run(capsys, "simulate", "--scheme", "sd", "--plane", "2",
                       "--transcript", str(transcript))
    assert code == EX_OK
    docs = [json.loads(line)
            for line in transcript.read_text().splitlines()]
    assert len(docs) == 7 * (1 + 3)
    assert all(set(doc) == {"sender", "tag", "meta", "bits", "payload"}
               for doc in docs)
    assert sum(doc["bits"] for doc in docs) == \
        json.loads(out)["total_bits"] == 154
    again = tmp_path / "again.jsonl"
    run(capsys, "simulate", "--scheme", "sd", "--plane", "2",
        "--transcript", str(again))
    assert again.read_bytes() == transcript.read_bytes()


def test_simulate_ruzsa_13_goldens(capsys, tmp_path):
    """Every byte of stdout and of the transcript of the largest ADS run
    in the suite, pinned: ruzsa 13, 156 nodes, 53 352 messages, 1 728
    values recovered per node."""
    transcript = tmp_path / "shuffle.jsonl"
    code, out, err = run(capsys, "simulate", "--scheme", "ads", "--ruzsa",
                         "13", "--seed", "0", "--transcript", str(transcript))
    assert (code, err) == (EX_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "3d0e58f06c302eb759a206351589dd8028e842fd9c2bf08b39aac7f21979db1b"
    data = transcript.read_bytes()
    assert data.count(b"\n") == 53352
    assert hashlib.sha256(data).hexdigest() == \
        "4fade279a83cc16808e06514f91ebd1179b31ee431a914cd133c1df967dac8ed"


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


@pytest.mark.parametrize("plane,scale,T", [(2, 6, 36), (3, 5, 40)])
def test_simulate_fields_past_degree_32(capsys, plane, scale, T):
    # the off-diagonal code of a plane runs over GF(2^T)
    code, out, _ = run(capsys, "simulate", "--scheme", "sd",
                       "--plane", str(plane), "--scale", str(scale))
    assert code == EX_OK
    report = json.loads(out)
    assert report["T"] == T
    assert report["match"] and report["decode_ok"]


def test_simulate_unsupported(capsys):
    # a valid plane whose field degree is past the supported ceiling
    code, _, err = run(capsys, "simulate", "--scheme", "sd", "--plane", "31")
    assert code == EX_UNSUPPORTED
    assert err
    # a width scaled past it, refused before any field element is built
    code, out, err = run(capsys, "simulate", "--scheme", "sd", "--plane", "2",
                         "--scale", "100000000")
    assert code == EX_UNSUPPORTED
    assert out == "" and "got 200000000" in err
    # a prime order past MAX_PLANE_ORDER, refused by the cap as design
    # --plane refuses it
    code, out, err = run(capsys, "simulate", "--scheme", "sd",
                         "--plane", "103")
    assert (code, out) == (EX_UNSUPPORTED, "")
    assert "up to order 101, got 103" in err


def test_simulate_refuses_a_wide_ads_scale(capsys):
    """An ADS width is at most 64 times the lcm of its segment counts:
    scale 10^8 exits 3 before any value is drawn."""
    code, out, err = run(capsys, "simulate", "--scheme", "ads", "--ads",
                         "0,1,3", "--n", "6", "--scale", "100000000")
    assert code == EX_UNSUPPORTED
    assert out == "" and "T=200000000 exceeds 128 bits" in err


@pytest.mark.parametrize("scale", _REFUSED_SCALES)
def test_simulate_refuses_the_grammar_scales_before_any_table(
        capsys, monkeypatch, documents, scale):
    """Every scale past 64 that the argv grammar draws exits 3 on each
    source the grammar can build, refused by choose_T before run() draws
    a single value, so no drawn argv is accepted and slow."""
    from cdcsim import shuffle

    def no_run(*args):
        raise AssertionError("run() reached")

    monkeypatch.setattr(shuffle, "run", no_run)
    sources = [("sd", "--plane", str(p)) for p in (2, 3, 5)]
    sources += [("ads", "--ruzsa", str(p)) for p in (3, 5, 7)]
    sources += [("ads", "--ads", "0,1,3", "--n", "6"),
                ("ads", "--ads", "0,1", "--n", "6"),
                ("sd", "--design", documents["@fano"]),
                ("ads", "--design", documents["@ads"])]
    for kind, *source in sources:
        code, out, err = run(capsys, "simulate", "--scheme", kind, *source,
                             "--scale", str(scale))
        assert (code, out) == (EX_UNSUPPORTED, ""), source
        assert err.startswith("unsupported: "), source


def test_simulate_refuses_a_plane_document_as_its_order(capsys, tmp_path):
    """The plane-43 document and --plane 43 are refused by the same width
    check, with the same message and no output."""
    path = tmp_path / "plane43.json"
    assert main(["design", "--plane", "43", "--out", str(path)]) == EX_OK
    refusals = [run(capsys, "simulate", "--scheme", "sd", *source)
                for source in (("--design", str(path)), ("--plane", "43"))]
    assert refusals[0] == refusals[1]
    code, out, err = refusals[0]
    assert (code, out) == (EX_UNSUPPORTED, "")
    assert "extension degree must be in 1..64, got 264" in err


def test_simulate_refuses_a_large_ads_value_table(capsys):
    """Ruzsa 23 has 506 nodes, so 256 036 intermediate values, past
    MAX_VALUES: it exits 3 before any value is drawn."""
    code, out, err = run(capsys, "simulate", "--scheme", "ads",
                         "--ruzsa", "23")
    assert (code, out) == (EX_UNSUPPORTED, "")
    assert "Q*N=256036 intermediate values exceed 131072" in err


def test_simulate_refuses_a_value_table_past_its_bits(capsys, tmp_path,
                                                     monkeypatch):
    """A value table past MAX_VALUE_BITS exits 3 with no output, for a
    --design document too.  The bound is lowered here so that a broken
    check costs one small run: the complement of ruzsa 7 holds 1764
    values of 930 bits."""
    path = tmp_path / "comp7.json"
    path.write_text(export_ads(complement_ads(ruzsa_ads(7))))
    monkeypatch.setattr(scheme, "MAX_VALUE_BITS", 10 ** 6)
    code, out, err = run(capsys, "simulate", "--scheme", "ads",
                         "--design", str(path))
    assert (code, out) == (EX_UNSUPPORTED, "")
    assert "Q*N*T=1640520 bits of intermediate values exceed 1000000" in err


def test_simulate_refuses_a_run_past_its_messages(capsys, monkeypatch):
    """A run sending more than MAX_MESSAGES messages exits 3 with no
    output.  The bound is lowered here so that a broken check costs one
    small run: ruzsa 5 sends 680 messages."""
    monkeypatch.setattr(scheme, "MAX_MESSAGES", 679)
    code, out, err = run(capsys, "simulate", "--scheme", "ads",
                         "--ruzsa", "5")
    assert (code, out) == (EX_UNSUPPORTED, "")
    assert "680 shuffle messages exceed 679" in err
    monkeypatch.setattr(scheme, "MAX_MESSAGES", 680)
    assert run(capsys, "simulate", "--scheme", "ads", "--ruzsa", "5")[0] == \
        EX_OK


@pytest.mark.parametrize("argv, digest", [
    ("--scheme sd --plane 3",
     "11a98e7faed6f3cdab191fe7237d2d9b593fc28566a14319772e3df2757ac0d9"),
    ("--scheme ads --ruzsa 5",
     "5027d0d79129f2bd922aad441b4091a613add3ad830fb096dbf2fd155beaed6b"),
    ("--scheme ads --ads 0,1,3 --n 6",
     "dd05ad05dc69629c4239562e8bcd1b5058a0179351608f3a21631c317b944b23"),
], ids=["plane3", "ruzsa5", "ads634"])
def test_dump_scheme_goldens(capsys, tmp_path, argv, digest):
    """Every byte of --dump-scheme, pinned: each field it prints is worked
    out from the design, so none may move."""
    path = tmp_path / "scheme.json"
    code, _, _ = run(capsys, "simulate", *argv.split(),
                     "--dump-scheme", str(path))
    assert code == EX_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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


@pytest.mark.parametrize("argv, digest", [
    ("check-appendix --max-p 60",
     "c405e3a2bdab5ff10ff7822f4f85a2735ca1bad491e43b0dd9cb48b6b25a14ae"),
    ("compare --family plane --min 2 --max 60",
     "141310a708817010876610fed14329e8c5b89432f7fbd48bb42aef8f7d931a9d"),
    ("compare --family ruzsa --min 3 --max 40 --decimal",
     "65d8072a8b6090cb21d2650d392f3a6607f25fbd8afad403b45fc5c937bf1c4e"),
], ids=["appendix60", "plane60", "ruzsa40-decimal"])
def test_analysis_stdout_goldens(capsys, argv, digest):
    """Every stdout byte of the analysis commands, pinned: a change to how
    the loads or the inequality terms are computed must not move one."""
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (EX_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_check_appendix_clamps_low_p(capsys):
    code, out, err = run(capsys, "check-appendix", "--min-p", "2",
                         "--max-p", "6")
    assert code == EX_OK
    assert "clamping" in err
    assert [c["p"] for c in json.loads(out)["checks"]] == [5, 6]


@pytest.mark.parametrize("command, cap, first_failure", [
    ("compare --family plane --min {} --max {}", 661, 673),
    ("compare --family ruzsa --min {} --max {}", 1103, 1109),
    ("check-appendix --min-p {} --max-p {}", 1106, 1107),
], ids=["plane", "ruzsa", "appendix"])
def test_analysis_caps(capsys, monkeypatch, command, cap, first_failure):
    """The last accepted parameter prints, its longest numeral just under
    CPython's 4300-digit int-to-str limit.  One past it, and at the first
    value whose output once raised ValueError on that limit, the command
    exits 3 before any term is computed."""
    code, out, err = run(capsys, *command.format(cap, cap).split())
    assert (code, err) == (EX_OK, "")
    if command.startswith("compare"):
        assert int(out.splitlines()[-1].split(",")[1]) == cap
    else:
        assert [c["p"] for c in json.loads(out)["checks"]] == [cap]
    assert 4200 < max(map(len, re.findall(r"\d+", out))) <= 4300

    def computed(*args):
        raise AssertionError("a term was computed")

    for name in ("li_load", "li_lower_bound_inequality",
                 "li_lower_bound_steps", "li_sandwich"):
        monkeypatch.setattr(analysis, name, computed)
    name = command.split()[2] if command.startswith("compare") else "p"
    for top in (cap + 1, first_failure):
        code, out, err = run(capsys, *command.format(cap, top).split())
        assert (code, out) == (EX_UNSUPPORTED, "")
        assert err.startswith(f"unsupported: {name} {top} is past {cap},")
