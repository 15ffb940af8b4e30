#!/usr/bin/env python3
"""Builds and runs the campaign-step benchmark (see README.md).

  python3 campbench/run.py --workload neumf-seq --seed 1 --seconds 15 --trace 0
  python3 campbench/run.py --test

The first call configures and builds the benchmark and the PoisonRec
libraries from source into .bench_build/campbench (or
$CARGO_TARGET_DIR/campbench); later calls only rebuild what changed. A
benchmark run then replaces this process with the benchmark binary, whose
last line of output is the JSON result. Build output goes to stderr.

--test builds and runs the benchmark's own tests: the ranker decorator's
identity tests, and a check that the metrics a short run prints are the
ones BENCHMARK.json names, with the same units.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "campbench"


def run_quiet(cmd):
    """Runs a build command; its output goes to stderr only on failure."""
    proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("campbench: command failed: %s" % " ".join(map(str, cmd)))


def build(*targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("campbench: no PoisonRec sources under %s" % ROOT)
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not (BUILD / "CMakeCache.txt").is_file():
            run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        run_quiet(["cmake", "--build", BUILD, "-j", "4", "--target", *targets])


def run_bench(args):
    cmd = [BUILD / "campbench", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                traces / ("%s-seed%d.json" % (args.workload, args.seed))]
    return [str(c) for c in cmd]


def check_metric_names(spec):
    """A short run prints exactly BENCHMARK.json's metrics and units.

    The metric set does not depend on the workload, so the cheapest one
    stands for all.
    """
    failures = 0
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        args = argparse.Namespace(workload="itempop-n200", seed=1, seconds=0,
                                  trace=trace)
        proc = subprocess.run(run_bench(args), stdout=subprocess.PIPE,
                              text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        ok = proc.returncode == 0 and result["correct"] and got == want
        print("%s metric names, --trace %d" % ("PASS" if ok else "FAIL", trace))
        if not ok:
            failures += 1
            print("  exit %d, correct %s, differing metrics: %s" % (
                proc.returncode, result["correct"],
                sorted(set(got.items()) ^ set(want.items()))))
    return failures


def self_test():
    build("campbench", "campbench_test")
    failures = subprocess.run([str(BUILD / "campbench_test")]).returncode != 0
    with open(ROOT / "BENCHMARK.json") as f:
        failures += check_metric_names(json.load(f))
    print("campbench self-test: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    # Let a terminated run unwind so subprocess.run kills its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    build("campbench")
    cmd = run_bench(args)
    os.execv(cmd[0], cmd)


if __name__ == "__main__":
    sys.exit(main())
