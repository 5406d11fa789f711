"""Set-up probe: a fresh interpreter imports psdlab and builds one problem.

    python3 perfbench/probe.py <workload> <seed> <full|tiny>

Run from the root of a checkout.  Prints ``ready`` once the workload's
problem exists; the caller times the span from spawning this process to
that line.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402  (imports psdlab from src/)


def main():
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.WORKLOADS[name].build(seed, size)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
