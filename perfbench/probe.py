"""Set-up time of one workload in a fresh interpreter.

    python3 perfbench/probe.py <workload> <seed> <work_dir>

Times ``import squintsim`` plus building and validating the workload's
config, up to the point where the study call would start, and prints the
seconds taken.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402  (imports squintsim)


def main(argv):
    name, seed, work_dir = argv
    workloads.load(name).prepare(int(seed), work_dir)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main(sys.argv[1:])
