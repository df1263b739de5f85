"""Record the exact output digest of every item any seed can select.

    python3 perfbench/record.py [--workload NAME ...]

Writes perfbench/expected.json.  Run it only at a commit whose outputs are
the reference: the benchmark counts every later difference as a failure.
Each item is also put through its oracle checks, and recording stops if any
of them fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run  # sets the thread caps and the library path
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    expected = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.exists() else {}
    for name in args.workload or sorted(workloads.WORKLOADS):
        start = time.perf_counter()
        table = {}
        for item in workloads.WORKLOADS[name].pool():
            workloads.before_pass()
            inputs = workloads.prepare(item)
            payload, extra = workloads.run_item(item, inputs)
            problems = workloads.check_item(item, inputs, payload, extra)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 4
            table[item.key] = workloads.digest(payload)
        expected[name] = table
        print(f"{name}: {len(table)} items in {time.perf_counter() - start:.1f} s")
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
