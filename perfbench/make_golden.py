"""Write ``golden.json``: the verdict digests every benchmark run checks.

    python3 perfbench/make_golden.py

Run it from the root of a checkout, and only when a change of verdict is
intended: a run whose digests differ from these counts its items as failed.
It refuses to write digests for an item that raised or failed its law check.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402


def golden_for(workload, indices) -> dict:
    tally = workloads.Tally(None)
    for k in indices:
        workload.run(workload.inputs(k), tally)
    if tally.failed:
        raise SystemExit(f"{workload.name}: {tally.failed} items failed: {tally.errors[:3]}")
    return tally.digests


def main() -> int:
    golden = {
        "qutrit-exhaustive": golden_for(workloads.QutritExhaustive(0), [0]),
        "qudit-star": golden_for(workloads.QuditStar(0), [0]),
    }
    pool = workloads.RandomObjects(0)
    pool.order = list(range(pool.POOL))
    golden["random-objects"] = golden_for(pool, pool.order)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
