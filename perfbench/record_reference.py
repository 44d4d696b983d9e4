"""Record the committed reference digests at the default seed.

Run from the repository root, at the commit the reference should
describe::

    python3 perfbench/record_reference.py

It runs one untraced pass of every workload and rewrites
``perfbench/reference.json``.  A change that leaves simulated results
byte-identical must not need to run this.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import REFERENCE, git_revision, run_pass
    from perfbench.points import DEFAULT_SEED, WORKLOADS, points_for

    workloads = {}
    for workload in WORKLOADS:
        outcomes = run_pass(points_for(workload, DEFAULT_SEED))
        for o in outcomes:
            if o["error"] is not None or o["problems"]:
                raise SystemExit(
                    f"{o['point'].name}: {o['error'] or o['problems']}")
        workloads[workload] = {o["point"].name: o["digest"] for o in outcomes}
    REFERENCE.write_text(json.dumps({
        "seed": DEFAULT_SEED,
        "revision": git_revision(),
        "workloads": workloads,
    }, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
