import json
import time

import pytest

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


def test_bh_probe_json(capsys):
    # n must reach the asymptotic regime: below ~256 the density n^(-1/5) is
    # large enough that dense 13-sets genuinely break the premise
    code, out, _ = run_cli(capsys, "bh-probe", "--k", "2", "--m", "13", "--n", "256,512",
                           "--trials", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["g_k_m"] == 92 and obj["premise_all_ok"] is True


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
    ],
)
def test_shatter_rejects_malformed_json(tmp_path, capsys, text):
    path = tmp_path / "s.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "shatter", "--in", str(path))
    assert code == 2 and err.startswith("error:")
    assert "Traceback" not in err


def test_exit_code_resource_limit(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sample", "--n", "4000", "--t", "1", "--p", "1/2",
                           "--limit-subsets", "1000")
    assert code == 3 and "resource limit" in err


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
