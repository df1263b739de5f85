"""Benchmark of shatterlab: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the library is imported from ./src.  The
benchmark is a single caller in a closed loop: one process, workers=1, and
BLAS thread pools capped at the machine's CPU count.  After one warm-up
pass, a run repeats passes over the workload's items until --seconds have
passed.  Each item is timed on its own, and its exact output is hashed after
the pass and compared with expected.json.  Between items, outside their
timings, an untraced run times small fixed kernels (speed.py) and scales its
timings to a reference host speed, because a shared host's speed drifts.  The
last line of standard output is one JSON object: with --trace 0 it carries
the end-to-end metrics, and with --trace 1 the raw per-layer metrics of a run
that alternates untraced and traced passes.  The line before it holds
diagnostics and run metadata; the full record, and the spans of the last
traced pass (gzipped JSON lines), go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import gzip
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017  # kept for confirming claims; never used while tuning
SETUP_PROBES = 7  # fresh processes timed for setup_s; the median is reported
MIN_PASSES = 4
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

# cap BLAS pools before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _have = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_have), NPROC) if _have.isdigit() and int(_have) > 0 else NPROC)
if not (ROOT / "src" / "shatterlab").is_dir():
    sys.exit(f"perfbench: no library source at {ROOT / 'src' / 'shatterlab'}")
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402  (after the thread caps and the library path)
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _cpu() -> float:
    """CPU seconds of this process and its children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


class Runner:
    """Runs passes over one workload's items and checks every output."""

    def __init__(self, workload, seed: int, expected: dict[str, str], gauge=None):
        self.workload = workload
        self.gauge = gauge  # speed.Gauge probed between items, or None
        self.seed = seed
        self.expected = expected
        self.items = workload.items(seed)
        self.inputs = [workloads.prepare(item) for item in self.items]
        self.attempted = 0
        self.failures: list[str] = []
        self.first: list | None = None  # (payload, extra) of the first pass, for the oracles

    def run_pass(self, tracer=None) -> dict:
        """One timed pass; digests are compared after the timing stops.

        With a gauge, the pass's wall and CPU times leave out the probes, and
        "slowdown" is the host's speed against the reference over the pass.
        """
        workloads.before_pass()
        results, times = [], []
        cpu0 = _cpu()
        start = time.perf_counter()
        for idx, (item, inputs) in enumerate(zip(self.items, self.inputs)):
            if tracer is not None:
                tracer.item = idx
            t0 = time.perf_counter()
            try:
                results.append(workloads.run_item(item, inputs))
            except Exception as exc:  # an item that raises counts as failed
                results.append(exc)
            times.append(time.perf_counter() - t0)
            if self.gauge is not None:
                self.gauge.tick(times[-1])
        slowdown, probes_s = self.gauge.factor() if self.gauge is not None else (1.0, 0.0)
        wall = time.perf_counter() - start - probes_s
        cpu = _cpu() - cpu0 - probes_s
        pruning = Counter()
        for item, result in zip(self.items, results):
            self.attempted += 1
            if isinstance(result, Exception):
                self.failures.append(f"{item.key}: raised {result!r}")
                continue
            payload = result[0]
            if workloads.digest(payload) != self.expected.get(item.key):
                self.failures.append(f"{item.key}: output differs from the recorded digest")
            if isinstance(payload, dict) and "pruning" in payload:
                pruning[payload["pruning"]] += 1
        if self.first is None:
            self.first = results
        return {
            "wall": wall,
            "cpu": cpu,
            "times": times,
            "pruning": pruning,
            "slowdown": slowdown,
        }

    def oracle_problems(self) -> list[str]:
        """Run the oracles once, untimed, on the first pass's outputs."""
        out = []
        if self.workload.samples_levels:
            out += workloads.check_levels(self.seed)
        for item, inputs, result in zip(self.items, self.inputs, self.first or []):
            if isinstance(result, Exception):
                continue
            try:
                out += workloads.check_item(item, inputs, *result)
            except Exception as exc:  # a raising oracle is a disagreement, not a crash
                out.append(f"{item.key}: oracle raised {exc!r}")
        return out


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh process to its having the inputs ready.

    Each probe imports the library, loads the digests and builds the inputs,
    then prints its perf_counter reading; the clock is system-wide, so the
    reading less the spawn time is the set-up time, without the exit.  The
    times are raw: set-up is mostly process start, loading and linking, whose
    speed the gauge's kernels do not track.
    """
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.run(
            cmd, check=True, timeout=120, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        times.append(float(probe.stdout) - start)
    return times


def metadata(args) -> dict:
    import numpy
    from shatterlab._keyed import GENERATOR_ID

    src = sorted((ROOT / "src").rglob("*.py"))
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "generator": GENERATOR_ID,
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
    }


def run(args, expected_all: dict) -> tuple[dict, dict]:
    workload = workloads.WORKLOADS[args.workload]
    setup_times = [] if args.trace else measure_setup(args)
    # the traced run reports raw times, so it does not probe the host's speed
    gauge = None if args.trace else speed.Gauge(dict(workload.gauge))
    runner = Runner(workload, args.seed, expected_all.get(args.workload, {}), gauge)
    run_id = f"{args.workload}:{args.seed}:{os.getpid()}:{time.time_ns()}"
    plain, traced, layer_rows, shares, last_spans = [], [], [], [], []
    runner.run_pass()  # warm-up: its outputs are checked, its times are not used
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(plain) + len(traced) < MIN_PASSES:
        if args.trace and len(plain) > len(traced):
            with spans.Tracer(run_id) as tracer:
                tracer.install(layers.TARGETS)
                res = runner.run_pass(tracer)
            last_spans = tracer.reset()
            summary = spans.summarize(last_spans)
            row = layers.pass_metrics(summary, res["pruning"])
            row["trace.uncovered_s"] = res["wall"] - summary["root_s"]
            row["trace.coverage"] = summary["root_s"] / res["wall"]
            shares.append({k: v / res["wall"] for k, v in layers.own_time(summary).items()})
            layer_rows.append(row)
            traced.append(res)
        else:
            plain.append(runner.run_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = runner.oracle_problems()

    # timings at the reference speed (raw in a traced run, where slowdown is 1);
    # an item's latency is its median over the passes, which damps the pauses
    # (collections, interrupts) that hit a short item in one pass and not the next
    item_ms = [
        statistics.median(p["times"][i] * 1000 / p["slowdown"] for p in plain)
        for i in range(len(runner.items))
    ]
    wall = statistics.median(p["wall"] / p["slowdown"] for p in plain)
    if args.trace:
        metrics = {}
        for name, unit in layers.METRICS:
            if name == "trace.overhead_s":
                value = statistics.median(p["wall"] for p in traced) - wall
            else:
                value = statistics.median(row[name] for row in layer_rows)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "wall_s": wall,
            "item_p50_ms": quantile(item_ms, 0.5),
            "item_p90_ms": quantile(item_ms, 0.9),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": not runner.failures and not problems,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    diagnostics = {
        "meta": metadata(args),
        "items_per_pass": len(runner.items),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "item_latencies": len(item_ms),  # one per item, each a median over the passes
        "failed_frac": result["failed"] / result["attempted"],
        "cpu_s": statistics.median(p["cpu"] for p in plain),
        "raw_wall_s": statistics.median(p["wall"] for p in plain),
        "pass_wall_s": [round(p["wall"], 4) for p in plain],
        "pass_slowdown": [round(p["slowdown"], 4) for p in plain],
        "setup_probe_s": [round(t, 4) for t in setup_times],
        "layer_shares": median_shares(shares),
        "failures": runner.failures[:20],
        "oracle_problems": problems[:20],
        "slopes": slopes(runner),
    }
    record = {"result": result, "diagnostics": diagnostics}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if last_spans:
        with gzip.open(OUT_DIR / f"{stem}.spans.jsonl.gz", "wt", encoding="utf-8") as fh:
            for i, span in enumerate(last_spans):
                fh.write(json.dumps({"id": i, **dataclasses.asdict(span)}) + "\n")
    return result, diagnostics


def median_shares(shares: list[dict]) -> dict[str, float]:
    """Median share of the traced pass wall per layer, largest first."""
    names = {name for row in shares for name in row}
    med = {name: statistics.median(row.get(name, 0.0) for row in shares) for name in names}
    return {k: v for k, v in sorted(med.items(), key=lambda kv: -kv[1]) if v > 0}


def slopes(runner) -> dict:
    """Log-log slope of mean total faces against n per growth series (never hashed)."""
    import numpy as np

    series: dict = {}
    for item, result in zip(runner.items, runner.first or []):
        if item.kind in ("growth", "probe") and not isinstance(result, Exception):
            key = f"{item.kind}:{item.args[0]},{item.args[1]}"
            series.setdefault(key, {}).setdefault(item.args[2], []).append(
                result[1]["total_faces"]
            )
    out = {}
    for key, by_n in series.items():
        if len(by_n) >= 2:
            ns = sorted(by_n)
            means = [sum(by_n[n]) / len(by_n[n]) for n in ns]
            out[key] = float(np.polyfit(np.log(ns), np.log(means), 1)[0])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    expected = json.loads(EXPECTED.read_text())  # part of set-up, so probes load it too
    if args.setup_probe:
        for item in workloads.WORKLOADS[args.workload].items(args.seed):
            workloads.prepare(item)
        print(time.perf_counter())
        return 0
    result, diagnostics = run(args, expected)
    print(json.dumps({"diagnostics": diagnostics}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
