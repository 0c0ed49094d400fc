"""Record the answer digests of the pinned cases in bench/pinned.json.

Usage: python3 bench/pin.py

Runs every workload's cases once and stores, for each case marked `pin`
whose run succeeded and passed its other checks, the digest of its
answer.  Run it only when the benchmark itself changes: the pins exist
to catch a change in the program's answers.
"""

import json
import os
import shutil
import sys
import time

import gen
import run
import runner

sys.path.insert(0, runner.SRC)

import cases  # noqa: E402


def main():
    pins = {}
    for workload, setup in cases.WORKLOADS.items():
        workdir = os.path.join(runner.ROOT, ".bench_work", "pin-" + workload)
        os.makedirs(workdir, exist_ok=True)
        try:
            ctx = setup(0, workdir)
            ctx.env = runner.child_env()
            ctx.child_maxrss_kb = 0
            names = [c.name for c in ctx.cases]
            results = runner.run_pass(ctx, gen.case_order(0, 0, names),
                                      time.perf_counter())
            pins[workload] = {}
            for case in ctx.cases:
                if not case.pin:
                    continue
                status, answer, detail = run.judge(case, results[case.name],
                                                   None)
                if status == "ok":
                    pins[workload][case.name] = answer
                print(workload, case.name, status, answer, detail or "")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(runner.BENCH, "pinned.json"), "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
