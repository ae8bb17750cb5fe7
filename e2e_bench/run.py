#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md in this directory).

    python3 e2e_bench/run.py --workload search_holdout --seed 1 --seconds 20 --trace 0
    python3 e2e_bench/run.py --seed 7            # every workload in turn

Builds the library and the benchmark program from source into .bench_build/
at the repository root (Release, only the targets the benchmark needs),
then runs one workload per process. The last stdout line of a single
workload is its JSON result; the exit code is non-zero when the build fails
or an output check fails. Run outputs (artifacts, sockets, span files) go
to .bench_out/.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = ".bench_out"  # relative to ROOT, which keeps socket paths short
# Temporary files (the compiler's too) stay inside the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
WORKLOADS = ["search_holdout", "search_cv", "serve_small", "serve_bulk"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("error: the library sources (CMakeLists.txt, src/) are not next to "
            + os.path.basename(HERE) + "/; run from a full checkout")
        return False
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "flaml_e2e_bench", "flaml_predict_serve"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, env=ENV)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("error: build step failed: " + " ".join(step))
            return False
    return True


def run_workload(args, workload):
    command = [
        os.path.join(BUILD, "flaml_e2e_bench"),
        "--workload", workload,
        "--metrics", os.path.join(ROOT, "BENCHMARK.json"),
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", OUT,
        "--bin-dir", os.path.join(BUILD, "flaml", "tools"),
        "--golden", os.path.join(HERE, "golden_digests.txt"),
    ]
    sys.stdout.flush()
    # Its own process group, so that a daemon the benchmark started cannot
    # outlive it, even when the benchmark dies.
    child = subprocess.Popen(command, cwd=ROOT, env=ENV, start_new_session=True)
    code = child.wait()
    stop_group(child.pid)
    return code


def stop_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    if not build():
        return 2
    if args.workload != "all":
        return run_workload(args, args.workload)
    failed = [w for w in WORKLOADS if run_workload(args, w) != 0]
    if failed:
        log("failed: " + ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
