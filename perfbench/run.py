#!/usr/bin/env python3
"""End-to-end benchmark of the isosurface render.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/ (its own CMake package, compiling ../src) into
.bench_build/perfbench, runs one workload closed loop for S seconds of frame
time, and prints as its last stdout line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (names as in BENCHMARK.json).
Scratch data, traces and a result record with the host fingerprint go to
.bench_out/<workload>-s<seed>-t<trace>/. Exits non-zero, without a result
line, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4", "--target", target])
    for cmd in steps:
        # Build output goes to stderr so stdout stays the benchmark's.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_binary(cmd, out_dir):
    """Runs `cmd` in its own session; returns (exit code, stdout lines)."""
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("run exceeded %d s and was killed" % RUN_TIMEOUT_S)
        return 1, []
    return proc.returncode, out.splitlines()


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}, [w["name"] for w in spec["workloads"]]


def result_ok(line, trace):
    """Whether `line` is a result line with exactly BENCHMARK.json's metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        log("last line is not JSON: " + line[:200])
        return False
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log("result keys are not exactly %s" % sorted(RESULT_KEYS))
        return False
    want, _ = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        log("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
        return False
    if result["attempted"] < 1:
        log("no frames attempted")
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own checks")
    args = ap.parse_args()

    if args.self_test:
        if not build("perfbench_selftest"):
            return 1
        out_dir = os.path.join(OUT_ROOT, "selftest")
        shutil.rmtree(out_dir, ignore_errors=True)
        code, lines = run_binary(
            [os.path.join(BUILD_DIR, "perfbench_selftest"), "--out", out_dir],
            out_dir)
        print("\n".join(lines))
        return code

    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        log("BENCHMARK.json not found at " + ROOT)
        return 1
    _, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        log("unknown workload %r; one of %s" % (args.workload, workloads))
        return 2
    if not build("perfbench"):
        return 1

    out_dir = os.path.join(OUT_ROOT, "%s-s%d-t%d" % (args.workload, args.seed,
                                                     args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    code, lines = run_binary(
        [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", out_dir], out_dir)
    # The store, spill files and rank scratch are large; traces and the
    # result record stay.
    for scratch in ("store", "spill", "ranks", "tmp"):
        shutil.rmtree(os.path.join(out_dir, scratch), ignore_errors=True)
    if code != 0 or not lines:
        log("benchmark exited with code %d" % code)
        return 1
    if not result_ok(lines[-1], args.trace):
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
