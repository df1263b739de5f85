import hashlib
import json
import math
import time
import warnings
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shatterlab import bounds, dtree, verify
from shatterlab.cli import main
from shatterlab.setsystem import parse_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_shatter_profile_csv(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("n=3\n\n0\n1\n2\n")
    code, out, _ = run_cli(capsys, "shatter", "--in", str(path))
    assert code == 0
    assert out.splitlines() == ["m,f", "0,1", "1,2", "2,3", "3,4"]


def test_shatter_single_value_json(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("n=3\n\n0\n1\n2\n")
    code, out, _ = run_cli(capsys, "shatter", "--in", str(path), "--m", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"m": 2, "value": 3}


def test_compress_round_trip(tmp_path, capsys):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.json"
    src.write_text("n=4\n1 2\n2 3\n")
    code, _, _ = run_cli(capsys, "compress", "--in", str(src), "--out", str(dst))
    assert code == 0
    system, _ = parse_json(dst.read_text())
    assert system.to_sets() == [[], [3]]


def test_complex_stats(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"n": 4, "facets": [[0,1,2],[2,3]]}\n')
    code, out, _ = run_cli(capsys, "complex", "stats", "--in", str(path), "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["dimension"] == 2
    assert obj["faces"] == {"0": 4, "1": 4, "2": 1}
    assert obj["delta"]["2"] == 0  # edge {2,3} extends to no triangle


def test_dtree_build_and_verify(tmp_path, capsys):
    out_path = tmp_path / "t.json"
    code, _, _ = run_cli(capsys, "dtree", "build", "--d", "2", "--Q", "5", "--r", "3",
                         "--out", str(out_path))
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["min_density"] == "49/10"
    assert len(obj["facets"]) == 13 and obj["roots"] == [12, 13, 14]

    code, out, _ = run_cli(capsys, "dtree", "verify", "--d-max", "1", "--Q-max", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,Q,r,formula,blockmin,brutemin,balanced,facets"
    assert "1,2,1,5/2,5/2,5/2,1,3" in lines


def test_dtree_verify_threads_agree(capsys):
    code, seq, _ = run_cli(capsys, "dtree", "verify", "--d-max", "1", "--Q-max", "2",
                           "--threads", "1")
    assert code == 0
    code, par, _ = run_cli(capsys, "dtree", "verify", "--d-max", "1", "--Q-max", "2",
                           "--threads", "2")
    assert code == 0
    assert seq == par  # cell order is merged deterministically


def test_dtree_verify_pool_is_bounded(recording_pool, capsys):
    code, par, _ = run_cli(capsys, "dtree", "verify", "--d-max", "1", "--Q-max", "2",
                           "--threads", "64")
    assert code == 0
    code, _, _ = run_cli(capsys, "dtree", "verify", "--d-max", "1", "--Q-max", "1",
                         "--r-max", "1", "--threads", "64")
    assert code == 0
    code, seq, _ = run_cli(capsys, "dtree", "verify", "--d-max", "1", "--Q-max", "2",
                           "--threads", "1")
    assert code == 0
    code, out, _ = run_cli(capsys, "dtree", "verify", "--d-max", "0", "--threads", "64")
    assert code == 0 and out.splitlines() == [seq.splitlines()[0]]
    assert recording_pool == [3, 2]
    assert par == seq


def test_dtree_verify_exits_4_on_a_failed_cell(monkeypatch, capsys):
    formula = dtree.min_density_formula
    monkeypatch.setattr(dtree, "min_density_formula", lambda d, q, r: formula(d, q, r) + 1)
    code, out, err = run_cli(capsys, "dtree", "verify", "--d-max", "1", "--Q-max", "1",
                             "--r-max", "2", "--threads", "1")
    assert code == 4
    assert len(out.splitlines()) == 4  # the header and every row, failed or not
    failures = [line.removeprefix("fail: ") for line in err.splitlines()]
    assert failures[0] == "(d=1,Q=1,r=0) density mismatch: formula=3 block=2 brute=2"
    assert len(failures) == 3
    # the acceptance suite judges its cells with the same checks
    suite = verify.SUITES["dtree-grid"]("quick", verify.DEFAULT_SEED)
    assert not suite.passed and set(failures) <= set(suite.failures)


def test_sample_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "sample", "--n", "12", "--t", "2", "--p", "3/10",
                             "--seed", "77", "--out", str(path))
        assert code == 0
    assert a.read_text() == b.read_text()


def test_growth_csv(capsys):
    code, out, _ = run_cli(capsys, "growth", "--s", "3", "--m", "4", "--n", "64,128",
                           "--trials", "2", "--seed", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("seed,n,s,m,t,p,")
    assert len([x for x in lines if not x.startswith("#")]) == 5
    assert any(x.startswith("# slope,") for x in lines)


def test_growth_exact_f_m_follows_limit_subsets(capsys):
    # C(130, 4) = 11,358,880 is over the default limit but under 2*10^7, so
    # the raised limit gives an exact f(m) and one just below C(130, 4) does not
    total = math.comb(130, 4)
    args = ("growth", "--s", "3", "--m", "4", "--n", "130", "--trials", "1")
    rows = {}
    for limit in (total - 1, total, 20_000_000):
        code, out, _ = run_cli(capsys, *args, "--limit-subsets", str(limit))
        assert code == 0
        rows[limit] = out.splitlines()[2].split(",")
    _, out, _ = run_cli(capsys, *args)
    default = out.splitlines()[2].split(",")
    f_m = 8  # column of f_m in the report row
    assert default == rows[total - 1] and default[f_m] == "sampled"
    assert rows[total] == rows[20_000_000]
    assert rows[total][f_m].isdigit()
    assert rows[total][:f_m] == default[:f_m]
    assert rows[total][f_m + 1 :] == default[f_m + 1 :]


def test_bh_probe_json(capsys):
    # n must reach the asymptotic regime: below ~256 the density n^(-1/5) is
    # large enough that dense 13-sets genuinely break the premise
    code, out, _ = run_cli(capsys, "bh-probe", "--k", "2", "--m", "13", "--n", "256,512",
                           "--trials", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["g_k_m"] == 92 and obj["premise_all_ok"] is True


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize(
    "argv, key",
    [
        (("growth", "--s", "3", "--m", "4", "--n", "40", "--trials", "1"), "slope"),
        (("bh-probe", "--k", "2", "--m", "13", "--n", "64", "--trials", "1"), "exponent"),
    ],
    ids=["growth", "bh-probe"],
)
def test_undefined_fit_prints_null(capsys, argv, key):
    # one size leaves the log-log fit undefined; JSON has no NaN
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out, parse_constant=_reject_constant)[key] is None


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, key",
    [
        (("growth", "--s", "3", "--m", "4", "--threads", "1"), "slope"),
        (("bh-probe", "--k", "2", "--m", "13"), "exponent"),
    ],
    ids=["growth", "bh-probe"],
)
def test_repeated_sizes_leave_the_fit_undefined(capsys, argv, key, fmt):
    # n = 64 twice is one distinct size: no fit, and no warning from polyfit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "--n", "64,64", "--trials", "1", "--format", fmt)
    assert code == 0 and "RankWarning" not in err
    if fmt == "json":
        assert json.loads(out, parse_constant=_reject_constant)[key] is None
    else:
        assert f"# {key},nan" in out.splitlines()


def test_bounds_eval(capsys):
    code, out, _ = run_cli(capsys, "bounds", "eval", "--kind", "tk_upper",
                           "--params", "m=7,k=1", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 15


def test_search_extremal_oracle_flag(capsys):
    code, out, _ = run_cli(capsys, "search", "extremal", "--n", "4", "--m", "2", "--b", "3",
                           "--oracle", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["max_size"] == 5 and obj["method"] == "oracle"


def test_exit_code_invalid_input(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("oops\n")
    code, _, err = run_cli(capsys, "shatter", "--in", str(bad))
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 4, "sets": [["a"]]}',  # label not an integer
        '{"n": 4, "sets": [[-1]]}',  # label below 0
        '{"n": "4", "sets": [[0]]}',  # ground size not an integer
        '{"n": 4, "sets": [[true]]}',  # bool is not a label
        '{"n": 4, "sets": [[4]]}',  # label above n - 1
        '{"n": 4, "sets": [5]}',  # member not a list
        '{"n": 4, "facets": [[-1, 2]]}',  # complex: label below 0
        '{"n": "4", "facets": [[0]]}',  # complex: ground size not an integer
        '{"n": 4, "facets": [["a", 1]]}',  # complex: label not an integer
        '{"n": 4, "facets": [[true]]}',  # complex: bool is not a label
        '{"n": 4, "facets": [3]}',  # complex: facet not a list
        '{"n": 70000, "facets": [[69999]]}',  # complex: ground size over the cap
    ],
)
def test_shatter_rejects_malformed_json(tmp_path, capsys, text):
    # a "facets" file is a complex, read by `complex stats`
    command = ("complex", "stats") if '"facets"' in text else ("shatter",)
    path = tmp_path / "s.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, *command, "--in", str(path))
    assert code == 2 and err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("growth", "--s", "3", "--m", "4", "--n", "0"),
        ("bh-probe", "--k", "2", "--m", "13", "--n", "0"),
        ("bh-probe", "--k", "2", "--m", "13", "--n", "256", "--trials", "0"),
        ("bounds", "eval", "--kind", "g_k", "--params", "k=x"),
        ("bounds", "eval", "--kind", "g_k", "--params", "n=4,k=1/0"),
        ("verify-paper", "--suite", "nope"),
        ("shatter", "--in", "."),  # a directory
        # an empty size list has no instance to fit or to check the premise on
        ("growth", "--s", "3", "--m", "4", "--n", ""),
        ("growth", "--s", "3", "--m", "4", "--n", ","),
        ("bh-probe", "--k", "2", "--m", "13", "--n", ""),
        ("bh-probe", "--k", "2", "--m", "13", "--n", ","),
    ],
)
def test_bad_flag_values_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, argv",
    [
        (("--seed", "7"), ("sample", "--n", "6", "--p", "1/2")),
        (("--format", "json"), ("bounds", "eval", "--kind", "g_k", "--params", "n=13,k=2")),
        (("--limit-subsets", "3"), ("sample", "--n", "5", "--t", "2", "--p", "1/2")),
        (("--threads", "2"), ("dtree", "verify", "--d-max", "1", "--Q-max", "1")),
    ],
)
def test_global_flag_before_or_after_the_subcommand(recording_pool, capsys, flag, argv):
    def run(*args):
        before = len(recording_pool)
        return run_cli(capsys, *args), recording_pool[before:]

    first = run(*flag, *argv)
    last = run(*argv, *flag)
    assert first == last  # same output, exit code and pool sizes
    assert first != run(*argv)  # and the flag took effect


@pytest.mark.parametrize(
    "argv, want",
    [
        (("dtree", "build", "--d", "40", "--Q", "40", "--r", "0"), 2),  # 41-label facets
        (("dtree", "build", "--d", "20", "--Q", "1", "--r", "0"), 3),  # 20 * (2^21 - 1) faces
        (("dtree", "build", "--d", "1", "--Q", "1", "--r", "100000000"), 3),
        (("dtree", "verify", "--d-max", "1", "--Q-max", "1", "--r-max", "100000000"), 3),
        (("dtree", "verify", "--d-max", "1000000000", "--Q-max", "1000000000"), 3),
        (("bounds", "eval", "--kind", "tk_lower", "--params", "m=3,k=2.5"), 2),
        (("bounds", "eval", "--kind", "g_k", "--params", "n=3/2,k=2"), 2),
        (("bounds", "eval", "--kind", "tk_lower", "--params", "m=3,k=1000000000000"), 3),
        (("bounds", "eval", "--kind", "g_k", "--params", "n=1000000000,k=1000000000"), 3),
        (("bounds", "eval", "--kind", "easy_upper_hint", "--params", "n=12,k=1000000000000"), 3),
        (("bounds", "eval", "--kind", "s_d", "--params", "s=1.0e999999999,d=1"), 2),
        # each row passes check_tree_size, but the grid closes about 1.35e11 faces
        (("dtree", "verify", "--d-max", "1", "--Q-max", "1", "--r-max", "300000"), 3),
        (("growth", "--s", "3", "--m", "4", "--n", "100000", "--trials", "1"), 3),
        (("bh-probe", "--k", "2", "--m", "13", "--n", "100000"), 3),
    ],
)
def test_oversized_trees_and_bounds_exit_at_once(capsys, argv, want):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == want and out == "" and "Traceback" not in err


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("dtree", "build", "--d", "2", "--Q", "5", "--r", "3"),
            "59ae44d3b9462e959625708c791edc3213a3e2592fa88ffa7769af283379a0a9",
        ),
        (
            ("dtree", "verify", "--threads", "1"),
            "112643d2dee16dfc0ebdafc3b9c7fa5f13fc611b91e6de145d7e08d34851172e",
        ),
    ],
    ids=["build", "verify"],
)
def test_dtree_honours_limit_subsets(capsys, argv, digest):
    # 91 faces for the tree, 12 for the first row of the grid
    code, out, err = run_cli(capsys, *argv, "--limit-subsets", "10")
    assert code == 3 and out == "" and err.startswith("resource limit:")
    assert "Traceback" not in err
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and _sha256(out) == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("dtree", "build", "--d", "2", "--Q", "300", "--r", "4"),
            "e0c547dd4799c45cbf865874289995cf6ee234b0251b5d12f2728acd8c3f1fa6",
        ),
        (
            ("sample", "--n", "60", "--t", "2", "--p", "1/4", "--seed", "7"),
            "412c3e6eb29c2698e19f11125e4f2884042f6d7de8492534ecb3ec6fcb29b40f",
        ),
    ],
    ids=["dtree-build", "sample"],
)
def test_facet_lists_are_pinned(capsys, argv, digest):
    # recorded when facets() compared each face with every facet found so far
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and _sha256(out) == digest


def test_bh_probe_large_m_bytes_are_pinned(capsys):
    # m = 60 rows span many trace_count blocks; the digest was recorded with
    # a per-set pair loop that shares no code with the batched counter
    code, out, _ = run_cli(capsys, "bh-probe", "--k", "2", "--m", "60", "--n", "256,300",
                           "--trials", "1", "--format", "json")
    assert code == 0
    assert _sha256(out) == "bb5ec1731b3cb56dfcb01a739068b3c3e48715b4113da907f1109a58b53901af"


_SCAN_GROWTH = ("growth", "--s", "5", "--m", "6", "--n", "20,24", "--trials", "2")
_SCAN_CSV = "1fbd97998d6bfccd1c8f13a669eafc1544ad58e9c166cc3ccdba86776b6cf674"
_SCAN_JSON = "f10b6d2ddf2c6fd7d6244574280f1d62ea42af012db00513034d99af131233be"


@pytest.mark.parametrize(
    "argv, digest",
    [
        ((*_SCAN_GROWTH, "--threads", "1"), _SCAN_CSV),
        ((*_SCAN_GROWTH, "--threads", "2"), _SCAN_CSV),
        ((*_SCAN_GROWTH, "--threads", "1", "--format", "json"), _SCAN_JSON),
        ((*_SCAN_GROWTH, "--threads", "2", "--format", "json"), _SCAN_JSON),
        (
            ("growth", "--s", "3", "--m", "4", "--n", "64,128", "--trials", "2", "--seed", "5",
             "--threads", "1"),
            "ff1d39a1ecc425ea189adad72a29647c082442aa6bee7d30e105213496e4d112",
        ),
        (
            ("bh-probe", "--k", "2", "--m", "13", "--n", "16,256", "--trials", "2",
             "--format", "json"),
            "e41bcb22255e63fc49983e6d00ee03e28e6c73bebb711c41f7110e6f48548383",
        ),
    ],
    ids=["scan-csv-1", "scan-csv-2", "scan-json-1", "scan-json-2", "shortcut", "probe"],
)
def test_sweep_bytes_are_pinned(capsys, argv, digest):
    # growth at s = 5 scans (t = 2), and at s = 3 takes the shortcut (t = 1);
    # the probe scans at n = 16 and skips at n = 256.  --threads 2 runs the
    # real pool of two processes.  The digests were recorded when growth and
    # the probe still had a sweep loop each.
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and _sha256(out) == digest


def test_exit_code_resource_limit(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sample", "--n", "4000", "--t", "1", "--p", "1/2",
                           "--limit-subsets", "1000")
    assert code == 3 and "resource limit" in err


def test_shatter_scan_is_bounded(tmp_path, capsys):
    # for m = 4 the colex scan passes all C(59, 4) subsets that miss vertex 59
    # before f(4) reaches its ceiling of 2
    path = tmp_path / "far.txt"
    path.write_text("n=60\n\n59\n")
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "shatter", "--in", str(path), "--limit-subsets", "100000")
    assert code == 3 and err.startswith("resource limit:")
    assert time.perf_counter() - start < 5.0


def test_complex_file_faces_are_bounded(tmp_path, capsys):
    # one 20-label facet closes downward to 1,048,575 faces
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 20, "facets": [list(range(20))]}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "complex", "stats", "--in", str(path),
                             "--limit-subsets", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and err.startswith("resource limit:")
    assert "Traceback" not in err


def test_verify_paper_quick_suite(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--tier", "quick",
                           "--suite", "bounds", "--suite", "extremal")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3  # two suites + overall
    first = json.loads(lines[0])
    assert first["suite"] == "bounds" and first["status"] == "pass"
    assert lines[-1] == "# overall,pass"


def test_exhaustive_oracle_is_capped_at_n5(capsys):
    # n = 6 would enumerate all ~7.8M downward-closed families
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "search", "extremal", "--n", "6", "--m", "2", "--b", "3",
                           "--oracle")
    assert code == 3 and err.startswith("resource limit:")
    assert time.perf_counter() - start < 5.0


# Malformed input files.  Ground sizes stay at most 12: the exact shatter scan
# of a valid file is exponential in n, and these tests probe parsing, not it.
_label = st.one_of(
    st.integers(-2, 12), st.booleans(), st.none(), st.text(max_size=2), st.floats(-2, 12)
)
_rows = st.lists(st.one_of(st.lists(_label, max_size=4), _label), max_size=5)
_ground = st.one_of(st.integers(-2, 12), st.booleans(), st.none(), st.text(max_size=2))
_json_doc = st.one_of(
    st.fixed_dictionaries({"n": _ground, "sets": _rows}),
    st.fixed_dictionaries({"n": _ground, "facets": _rows}),
    st.dictionaries(st.sampled_from(["n", "sets", "facets"]), st.one_of(_ground, _rows)),
    _rows,
)
_text_doc = st.builds(
    lambda header, lines: "\n".join([header, *lines]) + "\n",
    st.one_of(st.integers(-2, 12).map("n={}".format), st.text(alphabet="n= x.-", max_size=4)),
    st.lists(st.text(alphabet="0123456789 -x\t", max_size=8), max_size=5),
)
_input_file = st.one_of(
    st.tuples(st.just("in.json"), _json_doc.map(lambda doc: json.dumps(doc).encode())),
    st.tuples(st.just("in.txt"), _text_doc.map(str.encode)),
    st.tuples(st.sampled_from(["in.json", "in.txt"]), st.binary(max_size=24)),
)


@settings(
    max_examples=100,
    deadline=timedelta(seconds=2),
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_input_file)
def test_file_commands_keep_the_exit_code_contract(tmp_path, capsys, case):
    name, content = case
    path = tmp_path / name
    path.write_bytes(content)
    for argv in (
        ("shatter", "--in", str(path)),
        ("compress", "--in", str(path), "--out", str(tmp_path / "out.json")),
        ("complex", "stats", "--in", str(path)),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code in (0, 2, 3), (argv, content)
        assert "Traceback" not in err


_param_value = st.one_of(
    st.integers(-3, 40).map(str),
    st.integers(-(10**15), 10**15).map(str),
    st.fractions(-50, 50, max_denominator=7).map(str),
    st.decimals(-50, 50, places=2).map(str),
    st.text(alphabet="0123456789./-+e", max_size=8),
)
_params_text = st.dictionaries(
    st.sampled_from(["m", "n", "k", "d", "s", "x"]), _param_value, min_size=2
).map(lambda params: ",".join(f"{key}={value}" for key, value in params.items()))


@settings(
    max_examples=150,
    deadline=timedelta(seconds=2),
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    kind=st.one_of(st.sampled_from(bounds.QUERY_KINDS), st.text(max_size=6)),
    params=st.one_of(_params_text, st.text(max_size=12)),
)
def test_bounds_eval_keeps_the_exit_code_contract(capsys, kind, params):
    try:
        code, _, err = run_cli(capsys, "bounds", "eval", "--kind", kind, "--params", params)
    except SystemExit as exc:  # argparse rejects an unknown kind
        code, err = exc.code, capsys.readouterr().err
    assert code in (0, 2, 3), (kind, params)
    assert "Traceback" not in err
