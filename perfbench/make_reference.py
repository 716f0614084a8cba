#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: the training loss at the
checked step for every workload and every input seed
(0..benchlib.INPUT_SEEDS-1).

    python3 perfbench/make_reference.py [--jobs 2]

Rerun it only when the benchmark's training protocol changes (seeds,
warm-up, step order, optimizer settings, checked step) or a library
change is meant to change the numerics; say which in the change. Each
job runs one two-thread binary at a time.
"""

import argparse
import concurrent.futures
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402


def check_loss(job):
    workload, seed = job
    # --seconds 0: set up once, then train just up to the checked step.
    raw = benchlib.run_binary(workload, seed, 0, 0)
    if raw["ops"]["failed"]:
        raise SystemExit("%s seed %d failed: %s"
                         % (workload, seed, raw["ops"]["failures"]))
    return workload, seed, raw["loss"]["check_step"], raw["loss"]["check"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--jobs", type=int, default=2)
    args = ap.parse_args()
    benchlib.build()
    jobs = [(w, s) for w in benchlib.WORKLOADS
            for s in range(benchlib.INPUT_SEEDS)]
    table = {w: {} for w in benchlib.WORKLOADS}
    steps = set()
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        for workload, seed, step, loss in pool.map(check_loss, jobs):
            table[workload][str(seed)] = loss
            steps.add(step)
            print(workload, seed, loss, file=sys.stderr)
    (check_step,) = steps
    reference = {
        "check_step": check_step,
        # Same seed, same build: the loss repeats bitwise at any pool
        # size. The tolerance absorbs another SIMD kernel or compiler.
        "rel_tolerance": 0.01,
        "workloads": table,
    }
    with open(benchlib.REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
