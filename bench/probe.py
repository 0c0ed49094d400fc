"""Set up one workload in a fresh interpreter and say when it is ready.

Usage: python3 bench/probe.py WORKLOAD SEED WORKDIR

bench/run.py starts this several times and reports the median time from
process start to the "ready" line as setup_s.
"""

import os
import sys

import runner

sys.path.insert(0, runner.SRC)

import cases  # noqa: E402


def main():
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    os.makedirs(workdir, exist_ok=True)
    cases.WORKLOADS[workload](seed, workdir)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
