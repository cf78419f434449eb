"""Record the default seed's outputs as the checker's reference.

Usage: python3 perfbench/record_reference.py

Run it on the commit whose outputs are the reference; it rewrites
``perfbench/reference.json``. Only the invariants are checked while
recording.
"""

from __future__ import annotations

import json
import os
import sys

import check
import run
import workloads


def main() -> int:
    reference = {}
    for workload in sorted(workloads.GENERATORS):
        plan = run.Plan(workload, workloads.DEFAULT_SEED, "reference",
                        workloads.SCAN_THREADS)
        result = run.run_pass(plan, False, run.RUN_BUDGET_S, None)
        if result["failures"]:
            print(f"{workload}: failed {result['failures']}", file=sys.stderr)
            return 1
        reference[workload] = {
            e["name"]: check.summarize(*check.read_csv(e["out"]))
            for e in plan.experiments}
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
