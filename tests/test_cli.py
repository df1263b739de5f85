import hashlib
import json
import math
import random
import shlex
import time
import warnings
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shatterlab import bounds, dtree, scan, search, verify
from shatterlab.cli import main
from shatterlab.setsystem import SetSystem, parse_json, save_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _readme_cli_lines() -> list[list[str]]:
    """The arguments of each shatterlab line of the README's CLI block, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("shatterlab ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # in order, in one directory, so a file one example writes feeds a later
    # one: each exits 0, and with --limit-subsets 10 exits 3 or prints the
    # same bytes; verify-paper is left to the acceptance tests
    monkeypatch.chdir(tmp_path)
    (tmp_path / "system.txt").write_text("n=4\n1 2\n2 3\n0\n\n")
    (tmp_path / "system.json").write_text('{"n": 4, "sets": [[1, 2], [2, 3], [0], []]}\n')
    lines = [argv for argv in _readme_cli_lines() if argv[0] != "verify-paper"]
    assert len(lines) == 13
    limited = []
    for argv in lines:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        code, small, err = run_cli(capsys, *argv, "--limit-subsets", "10")
        assert code == 3 and err.startswith("resource limit:") or (code, small) == (0, out), argv
        if code == 3:
            limited.append(" ".join(argv[:2]))
    assert limited == ["dtree build", "dtree verify", "sample --n", "complex stats"]


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
        # each tree is small, but the brute force at Q = 10 walks 2^10 - 1 subsets
        (("dtree", "verify", "--d-max", "1", "--Q-max", "20", "--r-max", "0",
          "--limit-subsets", "1000"), 3),
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


_EMPTY = _sha256("")


@pytest.mark.parametrize(
    "cmd, code, digest, err",
    [
        (
            "sample --n 300 --t 2 --p 1/4 --seed 7",
            0,
            "d49ebd7262c2f93261d4e2b33a956959d6397ece7025793281f8204bc617b605",
            "# faces by dim: {0: 300, 1: 11244, 2: 17668}\n",
        ),
        (
            "sample --n 200 --t 1 --p 1/10 --seed 3",
            0,
            "b3026c4d65751b3419046852a4abb4477d027714a156af1e279f00d714155844",
            "# faces by dim: {0: 200, 1: 1902}\n",
        ),
        (
            "sample --n 2 --t 2 --p 1 --seed 0",
            0,
            "29fbf8f3d5d8d68bc1c4d82f3d4501ad0dc2ef47d8b160d704b2d4dc553883f4",
            "# faces by dim: {0: 2, 1: 1}\n",
        ),
        (
            "sample --n 12 --t 3 --p 1/2 --seed 5",
            0,
            "5ad36bc272f0f9c3bd6d0d543542dc6cef381b49bf9f12a846d6683541986ce4",
            "# faces by dim: {0: 12, 1: 24, 2: 4}\n",
        ),
        (
            "sample --n 40 --t 2 --p 0 --seed 1",
            0,
            "3a1b74676d9e012e334d6eab6dd446c9360b3b887cca7bb76883cb470ffb4644",
            "# faces by dim: {0: 40}\n",
        ),
        ("sample --n 30 --t 2 --p 3/2", 2, _EMPTY, "error: probability Fraction(3, 2) outside [0, 1]\n"),
        ("sample --n 0 --t 2 --p 1/2", 2, _EMPTY, "error: need n >= 1 and t >= 1\n"),
        (
            "sample --n 100 --t 2 --p 3/2 --limit-subsets 10",
            2,
            _EMPTY,
            "error: probability Fraction(3, 2) outside [0, 1]\n",
        ),
        (
            "sample --n 100 --t 2 --p 1/4 --limit-subsets 10",
            3,
            _EMPTY,
            "resource limit: level 2 has 4950 candidates (limit 10)\n",
        ),
        (
            "sample --n 100 --t 2 --p 1/4 --limit-subsets 5000",
            3,
            _EMPTY,
            "resource limit: level 3 has 161700 candidates (limit 5000)\n",
        ),
        (
            "sample --n 20000 --t 1 --p 1/2",
            3,
            _EMPTY,
            "resource limit: level 2 has 199990000 candidates (limit 10000000)\n",
        ),
    ],
)
def test_sample_bytes_are_pinned(capsys, cmd, code, digest, err):
    # recorded when every sample came from the scalar sample_complex; t <= 2
    # now takes the vectorized sampler, and t = 3 and n > 2^14 do not
    got, out, got_err = run_cli(capsys, *cmd.split())
    assert (got, _sha256(out), got_err) == (code, digest, err)


def _pinned_system(name: str) -> SetSystem:
    """The systems of the shatter pins: three random, not downward-closed ones
    whose traces need 16, 32 and 64 bits, and a closed one."""
    if name == "closed":
        return SetSystem.from_masks(9, (mask for mask in range(1 << 9) if mask.bit_count() <= 2))
    n, count = {"n12": (12, 60), "n17": (17, 40), "n33": (33, 12)}[name]
    rng = random.Random(n)
    return SetSystem.from_masks(n, {rng.getrandbits(n) for _ in range(count)})


# (system, flags, exit code, sha256 of stdout, stderr), recorded when each
# scan drew whole blocks of uint64 traces before it checked the ceiling
_SHATTER_PINS = [
    ("n12", "", 0, "09177f13ff4f2b50ee9154855f6309f47823aea2258a59e25265ad53b126d6fa", ""),
    ("n12", "--format json", 0, "82a91f178a6a4b1634875738cb5e4ea99c2030c4da6f3de22ad3345b8e7c75ef", ""),
    ("n17", "", 0, "740d8d5a8428d03fd80d06160ec5fcdd341008b9e0cad2d73417a0024e6e9053", ""),
    ("n17", "--format json", 0, "4331fe31978e05af4de783b1073b2f8e2393e865b9ea229069e7b53dce850e1f", ""),
    ("n33", "", 0, "4dc29e2b72827e8c9f47447420a324cc34e7938be48595ce0d06b96156099c05", ""),
    ("n33", "--format json", 0, "db844465a32e15ee29b8966658076b64386d8d8c6385950529f18ac2e7ef3278", ""),
    # the ceiling 32 first at colex rank 36
    ("n12", "--m 5", 0, "20bbfe1a606b1bd9e9d186598a9a830286ffeac7872a2f0a798e05e1b22b8f92", ""),
    # never the ceiling: all 12,376 subsets
    ("n17", "--m 6", 0, "5883f21715f1bf47439e0043510a9818bbabc8c794a6dfcd91db75ef1015d0e2", ""),
    # the ceiling 12 first at colex rank 40
    ("n33", "--m 4", 0, "de22ea9b714ae53ab61ec0cd7e64bb25834291ad9753ac5efd31119694affc81", ""),
    # the ceiling 40 first at colex rank 104: a limit of 105 reaches it, 104 does not
    ("n17", "--m 7 --limit-subsets 105", 0, "3ae74c40c0921a4b15ac46874ab6ef7e6fb4a7f0245c2a3bf99badc6a39a5496", ""),
    (
        "n17",
        "--m 7 --limit-subsets 104",
        3,
        _EMPTY,
        "resource limit: shatter scan of 19448 7-subsets exceeds the limit 104; "
        "raise --limit-subsets to force it\n",
    ),
    # the subset-sum path
    ("closed", "", 0, "123b0b1cfc9ccb21cb5c7a2426b010f51c7ded5e2fc6a20bbcdad86e16280f22", ""),
    ("closed", "--format json", 0, "0733b02ba282c942a028d5e7c331c814f2ade5417d8abfabc8af12e4ca853f4a", ""),
]


@pytest.mark.parametrize(
    "system, flags, code, digest, err",
    _SHATTER_PINS,
    ids=[f"{system} {flags}".strip() for system, flags, *_ in _SHATTER_PINS],
)
def test_shatter_bytes_are_pinned(tmp_path, capsys, system, flags, code, digest, err):
    path = tmp_path / "system.txt"
    save_file(str(path), _pinned_system(system))
    got, out, got_err = run_cli(capsys, "shatter", "--in", str(path), *flags.split())
    assert (got, _sha256(out), got_err) == (code, digest, err)


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
            "6620b4e0e85de2276551c06e90a965d6dcaadd33ef5fae2f12b96d6a9d32ccbb",
        ),
        (
            ("growth", "--s", "3", "--m", "6", "--n", "24,28,32", "--trials", "3"),
            "d7428709a78346c2684b342b70eca7cf9ba7ee6116f1c703bc96f5cda7c2e6ec",
        ),
        (
            ("growth", "--s", "4", "--m", "7", "--n", "12,14,16", "--trials", "3"),
            "28877073461f63e8097f247450ed84e8d98ae3a953783ddcfc1efdf8ce9842ac",
        ),
    ],
    ids=["scan-csv-1", "scan-csv-2", "scan-json-1", "scan-json-2", "shortcut", "probe",
         "scan-keeps", "scan-removes"],
)
def test_sweep_bytes_are_pinned(capsys, argv, digest):
    # growth at s = 5 scans (t = 2), and at s = 3 takes the shortcut (t = 1);
    # the probe scans at n = 16 and skips at n = 256.  --threads 2 runs the
    # real pool of two processes.  The digests were recorded when growth and
    # the probe still had a sweep loop each, apart from the probe's: pruning
    # empties its n = 16 instances, whose max_trace now reads 1, not m + 1.
    # The last two were recorded when every growth trial scanned its pruned
    # complex again for f(m): s = 3, m = 6 scans and removes nothing, and
    # s = 4, m = 7 removes 8 and 10 vertices in two of its n = 16 trials.
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and _sha256(out) == digest


@pytest.mark.parametrize(
    "cmd, code, out, err",
    [
        ("growth --s 5 --m 30 --n 20 --trials 1", 2, "", "error: m must be in 1..20\n"),
        (
            "growth --s 3 --m 6 --n 24 --trials 1 --limit-subsets 10",
            3,
            "",
            "resource limit: scan of 134596 subsets exceeds the limit 10; "
            "raise --limit-subsets to force it\n",
        ),
        (
            # m = 1: the shortcut, and an f(m) scan with k < 2
            "growth --s 3 --m 1 --n 5 --trials 1",
            0,
            "# generator=splitmix64-colex-v1\n"
            "seed,n,s,m,t,p,faces_total,faces_top,f_m,bad_msets,removed_vertices\n"
            "6374241921601488225,5,3,1,1,0.44721359549995787,12,7,2,0,0\n"
            "# slope,nan\n"
            "# target_exponent,3/2\n",
            "",
        ),
        (
            # the scan removes every vertex
            "bh-probe --k 2 --m 13 --n 16 --trials 1",
            0,
            "seed,n,faces_total,max_trace,gk_m,premise_ok,pruning,subsets_checked\n"
            "6126241334339286458,16,0,1,92,1,scan,601\n"
            "# exponent,nan\n"
            "# premise_all_ok,1\n",
            "",
        ),
    ],
    ids=["m-past-n", "over-the-limit", "k-below-2", "prune-empties"],
)
def test_prune_path_edge_cases_are_pinned(capsys, cmd, code, out, err):
    # recorded when the prune scanned the materialized sample
    assert run_cli(capsys, *cmd.split()) == (code, out, err)


def test_growth_prunes_past_the_limit_and_the_probe_skips(capsys):
    # s = 5, m = 6 has no shortcut (a 6-set spans at most 35 edges and
    # triangles, and z = 28), so growth must scan the C(200, 6) m-sets; the
    # probe, past the same limit, records the skip and exits 0
    code, _, err = run_cli(capsys, "growth", "--s", "5", "--m", "6", "--n", "200",
                           "--trials", "1")
    assert code == 3
    assert "scan of 82408626300 subsets exceeds the limit 10000000" in err
    code, out, _ = run_cli(capsys, "bh-probe", "--k", "2", "--m", "13", "--n", "40",
                           "--trials", "1")
    assert code == 0
    header, row = out.splitlines()[:2]
    assert dict(zip(header.split(","), row.split(",")))["pruning"] == "skipped"


def test_exit_code_resource_limit(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sample", "--n", "4000", "--t", "1", "--p", "1/2",
                           "--limit-subsets", "1000")
    assert code == 3 and "resource limit" in err


@pytest.mark.parametrize("module, name, raised, argv", [
    # the floor scan's level rows, where a growth trial with m = 27, n = 34 ran out
    (scan, "_span_levels",
     MemoryError("Unable to allocate 160. MiB for an array with shape (3365856, 25) "
                 "and data type int16"),
     "growth --s 5 --m 6 --n 30 --trials 1 --threads 1"),
    (search, "_child_rows", MemoryError(), "search extremal --n 4 --m 2 --b 3"),
])
def test_out_of_memory_exits_3_without_a_traceback(monkeypatch, capsys, module, name, raised,
                                                   argv):
    reached = []

    def out_of_memory(*args):
        reached.append(args)
        raise raised

    monkeypatch.setattr(module, name, out_of_memory)
    code, _, err = run_cli(capsys, *argv.split())
    assert reached
    assert (code, err) == (3, f"resource limit: {str(raised) or 'out of memory'}\n")


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
