#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 repobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures the repository's
CMake project (with repobench/attach.cmake hooked in) under .bench_build/
and builds the `repobench` target; later runs rebuild only what changed.
Build output goes to standard error. The benchmark's own output, ending in
one JSON result line, goes to standard output unchanged, and its exit code
is returned: 0 when every accepted answer matched the model, non-zero
otherwise or when the build fails.

Results, spans and the journal are written under .bench_out/.
"""
import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "repobench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "repobench", "repobench")
WORKLOADS = ("ingest_recover", "range_verify", "served_mixed", "boolean_multiattr")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log(f"no CMakeLists.txt at {ROOT}: not a repository checkout")
        return False
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", BUILD_DIR,
                      "-DCMAKE_PROJECT_INCLUDE=" +
                      os.path.join(BENCH_DIR, "attach.cmake")])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "repobench",
                  "-j", jobs])
    for cmd in steps:
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
        log(f"{cmd[1]} took {time.monotonic() - start:.1f}s")
    return os.path.isfile(BINARY)


def commit_id():
    """The commit being measured, when the checkout is a git repository."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--wrong-answer", action="store_true",
                        help="self-test: perturb one model answer; the run "
                             "must then fail")
    args = parser.parse_args()

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--commit", commit_id()]
    if args.wrong_answer:
        cmd.append("--wrong-answer")
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
        proc.kill()
        proc.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main())
