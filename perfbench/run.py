#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

The first call configures and builds perfbench/ (the simulator libraries
from src/ plus the perfbench binary, Release) under $CARGO_TARGET_DIR or
.bench_build; later calls rebuild incrementally. Build output goes to
stderr, so the last line of stdout is the JSON result. Traced
runs write their Chrome trace-event JSON under <build>/traces.
--selfcheck runs the benchmark's own tests (every workload at a small
size with all correctness checks) through ctest.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def step(cmd, timeout):
    """Run one build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def build():
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not step(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
        fail("configure failed (are the simulator sources in src/?)")
    if not step(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                BUILD_TIMEOUT_S):
        fail("build failed")
    return out


def main(argv):
    selfcheck = argv == ["--selfcheck"]
    if not selfcheck and "--workload" not in argv:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1> | --selfcheck")
    out = build()
    if selfcheck:
        ok = step(["ctest", "--test-dir", out, "--output-on-failure"],
                  BUILD_TIMEOUT_S)
        sys.exit(0 if ok else 1)
    cmd = [os.path.join(out, "perfbench"), *argv,
           "--trace-dir", os.path.join(out, "traces")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
