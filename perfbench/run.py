#!/usr/bin/env python3
"""Build and run perfbench.exe for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  perfbench.exe is built with dune into
.bench_build/ and runs with every GENSOR_* knob pinned, so the caller's
environment cannot change the program under test.  The last line of
stdout is the result object; build output and details go to stderr.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("compile-cold", "serve-warm", "cpu-exec")
BUILD_DIR = ".bench_build"
WORK_DIR = ".perfbench_work"  # perfbench.exe scratch files, one dir per pid
TARGET = "./perfbench/perfbench.exe"
RUN_TIMEOUT_S = 170

# Every knob the program reads, at the value the benchmark measures.
# GENSOR_PREDICT and GENSOR_CACHE_DIR are left unset: the program then
# uses no learned predictor and no shared store.
PINNED = {
    "GENSOR_JOBS": "1",
    "GENSOR_EXEC": "compiled",
    "GENSOR_MEMO": "1",
    "GENSOR_INCREMENTAL": "1",
    "GENSOR_VERIFY": "0",
    "GENSOR_TRACE": "off",
    "GENSOR_PREDICT_TOPK": "0.25",
    "GENSOR_PREDICT_WALK": "0",
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: run from the repository root "
                 "(no dune-project or lib/ here)")

    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GENSOR_") and k != "OCAMLRUNPARAM"}
    env.update(PINNED)

    # A terminated run.py must not leave the build or perfbench.exe running:
    # SystemExit unwinds through subprocess.run and the finally below,
    # which kill and reap their child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, TARGET],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("run.py: build failed")

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: perfbench.exe timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
            # perfbench.exe did not get to clean up.
            shutil.rmtree(os.path.join(WORK_DIR, str(proc.pid)),
                          ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
