"""Tests of the benchmark harness itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
from types import SimpleNamespace

import run  # sets the library path
import layers
import spans
import speed
import workloads

# cheap items from every kind that has one, taken from the recorded pools
_KEYS = (
    "extremal:3,2,3",
    "extremal:4,3,5",
    "density:1,1,0",
    "density:2,3,4",
    "growth:3,4,512:0",
    "growth:5,6,20:0",
    "growth:3,6,24:1",
    "probe:2,13,256:0",
    "compress:10,150:0",
)


def _mini_workload() -> workloads.Workload:
    pool = {item.key: item for w in workloads.WORKLOADS.values() for item in w.pool()}
    return workloads.Workload("mini", "harness test", (), tuple(pool[k] for k in _KEYS))


def _expected() -> dict[str, str]:
    tables = json.loads(run.EXPECTED.read_text()).values()
    return {key: digest for table in tables for key, digest in table.items()}


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    tracer = spans.Tracer("t", clock=lambda: next(ticks))
    a = tracer.open("a")
    b = tracer.open("b")
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(b)
    d = tracer.open("d")
    tracer.close(d, {"work": 3})
    tracer.close(a)
    summary = spans.summarize(tracer.reset())
    by = summary["by_name"]
    assert (by["a"]["s"], by["a"]["self_s"]) == (10.0, 3.0)
    assert (by["b"]["s"], by["b"]["self_s"]) == (4.0, 2.0)
    assert by["c"]["self_s"] == 2.0 and by["d"]["self_s"] == 3.0
    assert by["d"]["work"] == 3
    assert summary["root_s"] == 10.0
    assert summary["by_parent"][("d", "a")]["calls"] == 1


def test_wrapped_calls_nest_through_module_attributes():
    ns = SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    original_inner, original_outer = ns.inner, ns.outer
    with spans.Tracer("t") as tracer:
        tracer.install(
            (
                (ns, "inner", "inner", lambda a, k, r: {"result": r}),
                (ns, "outer", "outer", None),
            )
        )
        assert ns.outer(1) == 4
    assert ns.inner is original_inner and ns.outer is original_outer
    recorded = tracer.reset()
    assert [s.name for s in recorded] == ["outer", "inner"]
    assert recorded[1].parent == 0 and recorded[1].counts == {"result": 2}
    assert recorded[0].self_s <= recorded[0].seconds


def test_recorded_outputs_match_at_this_commit():
    runner = run.Runner(_mini_workload(), 1, _expected())
    runner.run_pass()
    assert runner.failures == [] and runner.attempted == len(_KEYS)
    assert runner.oracle_problems() == []


def test_corrupted_digest_counts_as_failure():
    expected = _expected()
    expected["growth:5,6,20:0"] = "0" * 64
    runner = run.Runner(_mini_workload(), 1, expected)
    runner.run_pass()
    assert len(runner.failures) == 1 and "growth:5,6,20:0" in runner.failures[0]
    assert len(runner.failures) / runner.attempted > 0


def test_tracing_leaves_outputs_unchanged():
    wl = _mini_workload()
    originals = [getattr(owner, attr) for owner, attr, _, _ in layers.TARGETS]
    plain = run.Runner(wl, 1, _expected())
    plain.run_pass()
    traced = run.Runner(wl, 1, _expected())
    with spans.Tracer("t") as tracer:
        tracer.install(layers.TARGETS)
        traced.run_pass(tracer)
    assert traced.failures == []
    assert [workloads.digest(r[0]) for r in plain.first] == [
        workloads.digest(r[0]) for r in traced.first
    ]
    assert [getattr(owner, attr) for owner, attr, _, _ in layers.TARGETS] == originals
    names = {s.name for s in tracer.reset()}
    assert {"randgen.sample_edges", "keyed.rank_u53_np", "search.canonical_form"} <= names


def test_hash_is_attributed_to_its_caller():
    runner = run.Runner(_mini_workload(), 1, _expected())
    with spans.Tracer("t") as tracer:
        tracer.install(layers.TARGETS)
        runner.run_pass(tracer)
    summary = spans.summarize(tracer.reset())
    row = layers.pass_metrics(summary, {})
    assert row["randgen.sample_edges.ranks_hashed"] > 0
    assert row["randgen.triangle_pass.candidates"] > 0
    assert (
        row["randgen.sample_edges.ranks_hashed"] + row["randgen.triangle_pass.candidates"]
        == row["keyed.rank_u53_np.ranks"]
    )
    assert 0 < row["randgen.sample_edges.accept_ratio"] < 1


def test_seed_picks_items_from_the_recorded_pool():
    expected = json.loads(run.EXPECTED.read_text())
    for name, workload in workloads.WORKLOADS.items():
        keys = [item.key for item in workload.items(run.HELD_OUT_SEED)]
        assert keys == [item.key for item in workload.items(run.HELD_OUT_SEED)]
        assert set(keys) <= set(expected[name])
        assert set(expected[name]) == {item.key for item in workload.pool()}
    a = workloads.WORKLOADS["sparse-edges"].items(1)
    b = workloads.WORKLOADS["sparse-edges"].items(2)
    assert a != b and len(a) == len(b)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_gauge_weights_readings_by_item_time_and_leaves_outputs_unchanged():
    gauge = speed.Gauge({"interp": 3, "cached": 1})
    assert abs(sum(gauge.mix.values()) - 1) < 1e-12
    gauge.tick(speed.PROBE_EVERY / 2)
    assert gauge.readings == []
    gauge.tick(speed.PROBE_EVERY / 2)
    assert len(gauge.readings) == 1 and gauge.readings[0][0] == speed.PROBE_EVERY
    gauge.readings = [(3.0, 1.0), (1.0, 2.0)]
    slowdown, spent = gauge.factor()
    assert slowdown == 1.25 and spent > 0 and gauge.readings == []
    plain = run.Runner(_mini_workload(), 1, _expected())
    gauged = run.Runner(_mini_workload(), 1, _expected(), speed.Gauge({"interp": 1}))
    res = gauged.run_pass()
    plain.run_pass()
    assert gauged.failures == [] and res["slowdown"] > 0 and res["wall"] >= sum(res["times"])
    assert [workloads.digest(r[0]) for r in plain.first] == [
        workloads.digest(r[0]) for r in gauged.first
    ]
