"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload switch-r64 --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload's points in passes until
``--seconds`` have elapsed (at least three passes) and reports the
end-to-end metrics as medians over passes.  ``--trace 1`` runs one
untraced pass and one traced pass and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The simulator is imported from ``src/`` next to this directory; without
it the script exits with status 2 and prints no result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no simulator sources under {src}\n")
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.bench import main as bench_main

    return bench_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
