"""Set-up probe: what one fresh interpreter does before it can measure.

    python3 perfbench/probe.py <workload> <seed> <size>

Imports trigsum from the checkout's src/, builds the workload's inputs,
prints 'ready' and exits. run.py times a few of these for setup_s, so
this imports nothing the set-up itself does not need.
"""

import sys
from pathlib import Path


def main() -> int:
    bench = Path(__file__).resolve().parent
    sys.path[:0] = [str(bench.parent / "src"), str(bench)]
    from workloads import SIZES, prepare

    workload, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    prepare(workload, seed, SIZES[size])
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
