#!/usr/bin/env python3
"""Short self-test of the end-to-end benchmark.

    python3 e2e_bench/selftest/selftest.py [--seconds 2]

Runs every workload of BENCHMARK.json at a short length with the default
seed, untraced and traced, and checks that
  * each run exits 0 and its last stdout line is the result object;
  * the output checks passed: "correct" is true and no operation failed
    (failed_ratio 0), which for the default seed includes the pinned
    search digests;
  * every end-to-end (untraced) or per-layer (traced) metric is printed
    with the unit BENCHMARK.json gives it, end-to-end values being > 0;
  * the traced run wrote its span file;
and that the benchmark exits non-zero without a result when only
BENCHMARK.json and the benchmark directory are present.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SEED = 1

failures = []


def check(condition, what):
    if not condition:
        failures.append(what)
        print("FAIL " + what, flush=True)


def run(spec, workload, trace, seconds, cwd=ROOT):
    command = spec["command"] + ["--workload", workload, "--seed", str(SEED),
                                 "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=900)


def check_run(spec, workload, trace, seconds):
    done = run(spec, workload, trace, seconds)
    label = "%s trace=%d" % (workload, trace)
    check(done.returncode == 0, label + ": exit code %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        check(False, label + ": last stdout line is not JSON")
        return
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          label + ": result keys " + str(sorted(result)))
    check(result.get("correct") is True, label + ": correct is not true")
    check(result.get("failed") == 0, label + ": failed_ratio is not 0")
    check(result.get("attempted", 0) >= 1, label + ": nothing attempted")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    check(sorted(metrics) == sorted(m["name"] for m in expected),
          label + ": metric names differ from BENCHMARK.json")
    for m in expected:
        got = metrics.get(m["name"], {})
        check(got.get("unit") == m["unit"], label + ": unit of " + m["name"])
        value = got.get("value")
        check(isinstance(value, (int, float)) and math.isfinite(value),
              label + ": value of " + m["name"])
        if not trace:
            check(isinstance(value, (int, float)) and value > 0,
                  label + ": " + m["name"] + " is not positive")
    if trace:
        spans = os.path.join(ROOT, ".bench_out", "spans",
                             "%s-seed%d.jsonl" % (workload, SEED))
        check(os.path.isfile(spans) and os.path.getsize(spans) > 0,
              label + ": no span file " + spans)
    print("ok   %s (%d operations)" % (label, result.get("attempted", 0)), flush=True)


def check_stripped(spec):
    # A directory holding only BENCHMARK.json and the benchmark's paths.
    stripped = os.path.join(ROOT, ".bench_out", "stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    os.makedirs(stripped)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(stripped, path))
    done = run(spec, spec["workloads"][0]["name"], 0, 1, cwd=stripped)
    check(done.returncode != 0, "stripped directory: exit code 0")
    check(not done.stdout.strip(), "stripped directory: printed a result")
    shutil.rmtree(stripped, ignore_errors=True)
    print("ok   stripped directory fails without a result", flush=True)


def main():
    parser = argparse.ArgumentParser(description="end-to-end benchmark self-test")
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_run(spec, workload, trace, args.seconds)
    check_stripped(spec)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
