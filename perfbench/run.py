#!/usr/bin/env python3
"""Builds the program and the benchmark harness from source, then runs one
workload and relays the harness's report.

    python3 perfbench/run.py --workload hybrid-small --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The build goes to .bench_build/perfbench
and every file a run writes stays under .bench_build. The last line of
standard output is the harness's JSON result; build output goes to standard
error. Exits nonzero, without a result, when the sources are missing or the
build fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# Compiler and harness temporary files stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
TARGETS = ["perfbench", "uctr_serve_bin", "uctr_router"]
HARNESS_TIMEOUT_S = 170


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    os.makedirs(TMP_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + TARGETS,
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def cache_value(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def host_description():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_value("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": version,
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "kernel": os.uname().release,
        "commit": source_commit(),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    os.environ["TMPDIR"] = TMP_DIR

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2

    host = host_description()
    print("host " + " ".join("%s=%r" % kv for kv in host.items()), flush=True)

    work_dir = os.path.join(ROOT, ".bench_build", "work",
                            "%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", BUILD_DIR, "--work-dir", work_dir]
    # The harness leads its own process group so that anything it leaves
    # behind (it stops its servers itself) can be killed as a group.
    harness = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = harness.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: harness exceeded %d s" % HARNESS_TIMEOUT_S,
              file=sys.stderr)
        code = 3
    finally:
        try:
            os.killpg(harness.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        harness.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
