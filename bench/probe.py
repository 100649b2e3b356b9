"""Set-up probe: import numpy, scipy and smelab, build one workload's inputs.

Prints ``ready <seconds>``, the seconds from ``--launched`` (the launcher's
CLOCK_MONOTONIC reading when it started this process) until the inputs
exist: the set-up a user pays on every run.

    python3 bench/probe.py --workload exact --seed 1 --out-root .bench_out \
        --launched 0
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402  (imports numpy, scipy and smelab)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-root", required=True)
    parser.add_argument("--launched", type=float, required=True)
    args = parser.parse_args()
    workloads.WORKLOADS[args.workload](args.seed, args.out_root)
    print("ready", repr(time.clock_gettime(time.CLOCK_MONOTONIC) - args.launched))


if __name__ == "__main__":
    main()
