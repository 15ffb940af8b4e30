#!/usr/bin/env python3
"""Runs interleaved parent/change campbench pairs and records them as JSON.

  python3 tools/campbench_pairs.py --parent DIR --change DIR \\
      --workloads neumf-seq itempop-n200 gru4rec-par --seeds 3-12 \\
      [--held-out 1009] [--out results/campbench_pairs.json]
  python3 tools/campbench_pairs.py --self-test

For each workload and seed it runs

  python3 <tree>/campbench/run.py --workload W --seed S \\
      --seconds <run_seconds> --trace 0

once in each tree (the first call in a tree builds its benchmark),
alternating which side goes first from one pair to the next. A run that
exits nonzero or prints "correct": false stops the tool. Each metric's
direction and bound come from the change tree's BENCHMARK.json.

Per workload and end-to-end metric it prints each side's median and
quartiles (statistics.quantiles, n=4, inclusive), the change/parent ratio
of the medians, the change's wins over the pairs (ties count for neither
side) and a verdict:
  gain                the change wins at least 9 of 10 pairs and its median
                      is better by more than the parent's interquartile range;
  worse               the change's median is worse than the parent's by more
                      than the metric's bound;
  no resolved change  neither.
A held-out seed runs one more pair, reported on its own. Each side's
attempted and failed reward queries are summed per workload.

It appends one entry to the output file (a JSON list): both trees' git HEAD
and whether they had uncommitted changes, the CPU model, the seeds, and the
rows with every run's values. --self-test checks the statistics, the
verdicts, the failure checks and the output on canned runs from stand-in
trees, and builds and runs no benchmark.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "results" / "campbench_pairs.json"


def parse_seeds(text):
    """'3-12' -> [3, ..., 12]; '1,5,9' -> [1, 5, 9]."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(tree, workload, seed, seconds):
    """One untraced benchmark run in `tree`; returns its JSON result."""
    cmd = [sys.executable, str(Path(tree) / "campbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    where = "%s, %s seed %d" % (tree, workload, seed)
    if proc.returncode != 0:
        sys.exit("campbench_pairs: run exited %d (%s)" % (proc.returncode,
                                                          where))
    result = json.loads(lines[-1]) if lines else {}
    if result.get("correct") is not True:
        sys.exit("campbench_pairs: run printed \"correct\": %s (%s)" %
                 (json.dumps(result.get("correct")), where))
    return result


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def better(direction, a, b):
    """Whether value a is better than value b."""
    return a > b if direction == "higher" else a < b


def compare(spec, parent, change):
    """Statistics and verdict for one metric over paired runs."""
    pq, cq = quartiles(parent), quartiles(change)
    pm, cm = statistics.median(parent), statistics.median(change)
    wins = sum(better(spec["better"], c, p) for p, c in zip(parent, change))
    iqr = pq[2] - pq[0]
    worse_by = (pm - cm if spec["better"] == "higher" else cm - pm) / pm
    if (better(spec["better"], cm, pm) and 10 * wins >= 9 * len(parent)
            and abs(cm - pm) > iqr):
        verdict = "gain"
    elif worse_by > spec["bound"]:
        verdict = "worse"
    else:
        verdict = "no resolved change"
    return {"parent": {"median": pm, "quartiles": pq},
            "change": {"median": cm, "quartiles": cq},
            "ratio": cm / pm, "wins": wins, "pairs": len(parent),
            "verdict": verdict}


def tree_state(tree):
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return {"head": None, "dirty": None}
    return {"head": head.stdout.strip(),
            "dirty": git("status", "--porcelain").stdout.strip() != ""}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_pairs(parent, change, workloads, seeds, held_out, log=print):
    """Runs the pairs; returns the output entry."""
    with open(Path(change) / "BENCHMARK.json") as f:
        bench = json.load(f)
    specs = bench["end_to_end"]
    sides = {"parent": parent, "change": change}
    entry = {"date": datetime.datetime.now(datetime.timezone.utc)
                     .strftime("%Y-%m-%dT%H:%M:%SZ"),
             "parent": tree_state(parent), "change": tree_state(change),
             "cpu": cpu_model(), "run_seconds": bench["run_seconds"],
             "seeds": seeds, "held_out": held_out, "workloads": []}
    pair = 0
    for workload in workloads:
        runs = {"parent": [], "change": []}
        held = {}
        for seed in seeds + ([held_out] if held_out is not None else []):
            order = ["parent", "change"] if pair % 2 == 0 else ["change",
                                                                "parent"]
            pair += 1
            got = {side: run_once(sides[side], workload, seed,
                                  bench["run_seconds"]) for side in order}
            log("%s seed %d: %s" % (workload, seed, "  ".join(
                "%s %.4g" % (side, got[side]["metrics"]["steps_per_s"]
                             ["value"]) for side in order)))
            for side in ("parent", "change"):
                if seed == held_out:
                    held[side] = got[side]
                else:
                    runs[side].append(got[side])
        row = {"workload": workload, "queries": {}, "metrics": {}}
        for side in ("parent", "change"):
            every = runs[side] + ([held[side]] if held else [])
            row["queries"][side] = {
                "attempted": sum(r["attempted"] for r in every),
                "failed": sum(r["failed"] for r in every)}
        for spec in specs:
            name = spec["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                      for side in runs}
            metric = compare(spec, values["parent"], values["change"])
            metric["unit"] = spec["unit"]
            metric["better"] = spec["better"]
            metric["bound"] = spec["bound"]
            metric["runs"] = values
            if held:
                p = held["parent"]["metrics"][name]["value"]
                c = held["change"]["metrics"][name]["value"]
                metric["held_out"] = {"parent": p, "change": c,
                                      "change_wins": better(spec["better"],
                                                            c, p)}
            row["metrics"][name] = metric
        entry["workloads"].append(row)
    return entry


def report(entry, log=print):
    for row in entry["workloads"]:
        q = row["queries"]
        log("\n%s  (queries failed/attempted: parent %d/%d, change %d/%d)" % (
            row["workload"], q["parent"]["failed"], q["parent"]["attempted"],
            q["change"]["failed"], q["change"]["attempted"]))
        log("  %-12s %-31s %-31s %7s %5s  %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "ratio", "wins", "verdict"))
        for name, m in row["metrics"].items():
            cells = []
            for side in ("parent", "change"):
                s = m[side]
                cells.append("%.4g [%.4g, %.4g]" % (
                    s["median"], s["quartiles"][0], s["quartiles"][2]))
            held = ""
            if "held_out" in m:
                h = m["held_out"]
                held = "; held-out %.4g -> %.4g%s" % (
                    h["parent"], h["change"],
                    "" if h["change_wins"] else " (not a win)")
            log("  %-12s %-31s %-31s %7.3f %2d/%-2d  %s%s" % (
                name, cells[0], cells[1], m["ratio"], m["wins"], m["pairs"],
                m["verdict"], held))


def append_entry(path, entry):
    path = Path(path)
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entries, indent=1) + "\n")


# -- Self-test ---------------------------------------------------------------

# A stand-in campbench/run.py: prints the JSON line of a run whose metrics
# are fixed functions of the tree's "speed" and the seed. Its "fail" mode
# makes it exit nonzero ("exit") or print "correct": false ("incorrect").
FAKE_RUN = r'''
import argparse, json, sys
from pathlib import Path
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
conf = json.loads((Path(__file__).parent / "fake.json").read_text())
with open(Path(__file__).parent / "calls.log", "a") as f:
    f.write("%s %s %s %s\n" % (a.workload, a.seed, a.seconds, a.trace))
if conf["fail"] == "exit":
    sys.exit(3)
seed = int(a.seed)
wobble = [0.0, 0.3, -0.2, 0.1, -0.1, 0.2, -0.3, 0.05, -0.05, 0.15][seed % 10]
steps = conf["speed"] * (10.0 + wobble)
metrics = {"steps_per_s": steps, "step_s_p50": 1.0 / steps,
           "step_cpu_s": 1.0 / steps, "setup_s": 0.15,
           "peak_rss_mb": 16.0 + conf["rss"]}
print("step lines")
print(json.dumps({"correct": conf["fail"] != "incorrect", "attempted": 96,
                  "failed": 1 if conf["speed"] < 1 else 0,
                  "metrics": {k: {"value": v, "unit": "x"}
                              for k, v in metrics.items()}}))
'''


def make_tree(base, name, speed, rss=0.0, fail=""):
    tree = Path(base) / name
    (tree / "campbench").mkdir(parents=True)
    (tree / "campbench" / "run.py").write_text(FAKE_RUN)
    (tree / "campbench" / "fake.json").write_text(
        json.dumps({"speed": speed, "rss": rss, "fail": fail}))
    (tree / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    return tree


def self_test():
    failures = []

    def check(ok, what):
        print("%s %s" % ("PASS" if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    check(parse_seeds("3-12") == list(range(3, 13)) and
          parse_seeds("1,4-5") == [1, 4, 5], "seed lists")
    check(quartiles([float(v) for v in range(1, 11)]) == [3.25, 5.5, 7.75],
          "inclusive quartiles")
    higher = {"better": "higher", "bound": 0.25}
    lower = {"better": "lower", "bound": 0.25}
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    check(compare(higher, parent, [v * 1.4 for v in parent])["verdict"] ==
          "gain", "a clear gain")
    # 8 of 10 wins: the two others tie, and ties count for neither side.
    eight = [v + 1.0 for v in parent[:8]] + parent[8:]
    m = compare(higher, parent, eight)
    check(m["wins"] == 8 and m["verdict"] == "no resolved change",
          "8/10 wins with two ties is no gain")
    # Wins every pair, by less than the parent's interquartile range.
    m = compare(higher, parent, [v + 0.01 for v in parent])
    check(m["wins"] == 10 and m["verdict"] == "no resolved change",
          "a gap inside the parent's IQR is no gain")
    check(compare(lower, parent, [v * 1.3 for v in parent])["verdict"] ==
          "worse", "worse beyond the bound (lower is better)")
    check(compare(higher, parent, [v * 0.8 for v in parent])["verdict"] ==
          "no resolved change", "worse within the bound")
    m = compare(higher, [2.0, 4.0], [3.0, 6.0])
    check(m["ratio"] == 1.5 and m["parent"]["median"] == 3.0, "ratio")

    with tempfile.TemporaryDirectory() as base:
        p = make_tree(base, "parent", 1.0)
        c = make_tree(base, "change", 1.5, rss=0.1)
        quiet = lambda *_: None
        entry = run_pairs(p, c, ["neumf-seq", "gru4rec-par"], [3, 4, 5, 6],
                          1009, log=quiet)
        rows = {r["workload"]: r for r in entry["workloads"]}
        steps = rows["neumf-seq"]["metrics"]["steps_per_s"]
        check(steps["verdict"] == "gain" and steps["wins"] == 4 and
              steps["held_out"]["change_wins"], "stand-in trees: a gain")
        check(rows["gru4rec-par"]["metrics"]["peak_rss_mb"]["verdict"] ==
              "no resolved change", "stand-in trees: RSS within bound")
        check(rows["neumf-seq"]["queries"]["parent"] ==
              {"attempted": 480, "failed": 0}, "query counts")
        calls = {}
        for side in ("parent", "change"):
            calls[side] = (Path(base) / side / "campbench" /
                           "calls.log").read_text().splitlines()
        check(calls["parent"][0] == "neumf-seq 3 15 0" and
              len(calls["parent"]) == 10, "one untraced run per seed")
        check(entry["parent"]["head"] is None and entry["seeds"] ==
              [3, 4, 5, 6], "entry fields")
        out = Path(base) / "out" / "pairs.json"
        append_entry(out, entry)
        append_entry(out, entry)
        check(len(json.loads(out.read_text())) == 2, "append to the file")
        for mode in ("exit", "incorrect"):
            bad = make_tree(base, "bad-" + mode, 1.0, fail=mode)
            try:
                run_pairs(p, bad, ["neumf-seq"], [3], None, log=quiet)
                stopped = False
            except SystemExit:
                stopped = True
            check(stopped, "a run that fails (%s) stops the tool" % mode)

    print("campbench_pairs self-test: %s" %
          ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="the parent commit's tree")
    parser.add_argument("--change", help="the change's tree")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", default="3-12")
    parser.add_argument("--held-out", type=int)
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.change and args.workloads):
        parser.error("--parent, --change and --workloads are required")
    seeds = parse_seeds(args.seeds)
    if args.held_out in seeds:
        parser.error("--held-out must be a seed outside --seeds")
    entry = run_pairs(os.path.abspath(args.parent),
                      os.path.abspath(args.change), args.workloads, seeds,
                      args.held_out)
    report(entry)
    append_entry(args.out, entry)
    print("\nappended to %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
