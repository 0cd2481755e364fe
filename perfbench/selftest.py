#!/usr/bin/env python3
"""Checks of the benchmark itself.

    python3 perfbench/selftest.py

1. Builds and runs perfbench_stats_test (exact quantiles against
   hand-computed values).
2. Runs each serving workload twice with the same seed for two seconds and
   checks that both runs pass their output checks and report the same
   response digest.

Exits nonzero on the first failure.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def run_workload(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "2",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("%s failed (exit %d):\n%s%s" % (workload, out.returncode,
                                                out.stdout, out.stderr))
    digest = re.search(r"^response_digest (\w+)", out.stdout, re.M)
    if digest is None:
        sys.exit("%s printed no response digest" % workload)
    return digest.group(1)


def main():
    # run.py configures the build directory on first use.
    run_workload("hybrid-small", 1)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench_stats_test"], check=True, stdout=sys.stderr)
    subprocess.run([os.path.join(BUILD_DIR, "perfbench_stats_test")],
                   check=True)
    for workload in ("hybrid-small", "ref-1k", "hot-churn"):
        first, second = run_workload(workload, 7), run_workload(workload, 7)
        if first != second:
            sys.exit("%s: digests differ for one seed: %s vs %s" %
                     (workload, first, second))
        print("%s: response digest %s repeats" % (workload, first))
    print("selftest passed")


if __name__ == "__main__":
    main()
