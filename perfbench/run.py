#!/usr/bin/env python3
"""The covest benchmark of record: one command, four workloads.

    python3 perfbench/run.py --workload batch_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first run builds the program from
`src/` into `$CARGO_TARGET_DIR/perfbench` (default `.bench_build/perfbench`)
with CMake in Release mode; later runs reuse the build.

Each run has three steps, each its own process:
  1. `perfbench measure` sets the program up, drives the workload for
     `--seconds`, and records every reply;
  2. `perfbench check` holds every reply against a serial cold
     `Engine::run`, construction facts and, for small models, the explicit
     Definition-3 oracle;
  3. this script stamps the environment and prints the result as the last
     stdout line: {"correct", "attempted", "failed", "metrics"}. With
     `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
     per-layer ones.

Exit codes: 0 = run complete and every reply correct; 1 = a wrong or
missing reply, or a failed build; 2 = usage or a non-Release build;
3 = the run was invalid (the load generator fell behind its schedule), so
no figures are reported.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_mix", "single_large", "serve_warm", "serve_cold")
STEP_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(out_dir):
    """Configures (once) and builds; returns the build type or exits."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "-j", str(nproc())])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                sys.exit(1)
    with open(os.path.join(out_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no result line")


def run_step(cmd):
    t0 = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=STEP_TIMEOUT_S, cwd=ROOT)
    body = proc.stdout.strip().splitlines()
    for line in body[:-1]:
        print(line)
    if proc.returncode != 0 and not body:
        sys.stderr.write(proc.stderr)
    print("step %s took %.2f s" % (cmd[1], time.time() - t0))
    return proc, last_json_line(proc.stdout) if body else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the harness self-tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    if args.workload == "all":
        # One run per workload, each in its own process; the exit code is
        # the first non-zero one.
        rc = 0
        for w in WORKLOADS:
            print("== %s ==" % w, flush=True)
            r = subprocess.run([sys.executable, os.path.abspath(__file__),
                                "--workload", w, "--seed", str(args.seed),
                                "--seconds", str(args.seconds),
                                "--trace", str(args.trace)], cwd=ROOT)
            rc = rc or r.returncode
        return rc

    out_dir = build_dir()
    build_type = build(out_dir)
    if build_type != "Release":
        sys.stderr.write("perfbench: refusing a %r build; figures are only "
                         "taken from Release builds\n" % build_type)
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(out_dir, "perfbench_selftest")],
                              cwd=ROOT).returncode

    cpus = nproc()
    load_start = os.getloadavg()
    print("env: nproc=%d build=%s load_avg_start=%.2f,%.2f,%.2f" %
          ((cpus, build_type) + load_start))
    binary = os.path.join(out_dir, "perfbench")
    replies = os.path.join(out_dir, "replies-%s-%d.tsv" %
                           (args.workload, os.getpid()))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--nproc", str(cpus), "--replies", replies]
    try:
        measure, m = run_step([binary, "measure", "--seconds",
                               str(args.seconds), "--trace", str(args.trace)]
                              + common)
        if measure.returncode != 0 or m is None:
            sys.stderr.write("perfbench: measure failed (exit %d)\n" %
                             measure.returncode)
            return 1
        check, c = run_step([binary, "check"] + common)
        if c is None:
            sys.stderr.write("perfbench: check failed (exit %d)\n" %
                             check.returncode)
            return 1
    finally:
        if os.path.exists(replies):
            os.remove(replies)

    load_end = os.getloadavg()
    print("env: load_avg_end=%.2f,%.2f,%.2f" % load_end)
    if not m["valid"]:
        print("perfbench: run INVALID, not slow: %s" % m["invalid_reason"])
        return 3
    attempted = m["attempted"]
    failed = (attempted - m["replied"]) + c["mismatches"]
    print("failed_ratio = %.6f (%d of %d requests failed or answered wrongly)"
          % (failed / max(1, attempted), failed, attempted))
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": m["metrics"]}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
