"""Check that the default and the held-out seed load the layers alike.

    python3 perfbench/seedcheck.py [--seconds S] [--workload NAME ...]

Runs one traced run per workload and seed, and compares each layer's share
of the traced pass wall time.  A layer that takes at least MIN_SHARE of
either run must have shares within the benchmark's wall_s bound of each
other, relative to the larger one; otherwise the workload depends on its
sample and the check exits with 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run

MIN_SHARE = 0.05


def layer_shares(workload: str, seed: int, seconds: float) -> dict[str, float]:
    cmd = [
        sys.executable,
        str(run.HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "1",
    ]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    if not json.loads(lines[-1])["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs are not correct")
    return json.loads(lines[-2])["diagnostics"]["layer_shares"]


def main(argv=None) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        a = layer_shares(workload, run.DEFAULT_SEED, args.seconds)
        b = layer_shares(workload, run.HELD_OUT_SEED, args.seconds)
        for layer in sorted(set(a) | set(b), key=lambda k: -max(a.get(k, 0), b.get(k, 0))):
            sa, sb = a.get(layer, 0.0), b.get(layer, 0.0)
            if max(sa, sb) < MIN_SHARE:
                continue
            within = abs(sa - sb) <= bound * max(sa, sb)
            ok &= within
            print(f"{workload:16} {layer:32} {sa:6.3f} {sb:6.3f} {'ok' if within else 'DIFFERS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
