#!/usr/bin/env python3
"""Run one workload N times and summarise each metric against its bound.

    python3 perfbench/repeat.py --workload NAME [--runs 10] [--first-seed 1]
                                [--out FILE]
    python3 perfbench/repeat.py --compare BEFORE.json AFTER.json

The first form runs perfbench/run.py untraced for BENCHMARK.json's
run_seconds, once per seed (first-seed, first-seed + 1, ...), and prints,
for every end-to-end metric, the median, the first and third quartiles
(Python's statistics.quantiles(values, n=4)), the spread (q3 - q1) /
median, and the metric's bound. A spread above a third of the bound is
flagged: bounds are set so that the run-to-run spread stays below a third
of them. --out saves the runs.

The second form compares two saved sets of runs of one workload. It fails
unless every run of both sets is correct and both sets measured every
end-to-end metric; then, for every end-to-end metric, it reports how much
worse the second median is than the first, as a share of the first,
against the metric's bound, and whether the share of failed operations is
the same.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} failed "
                         f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (
        (q3 - q1) / abs(statistics.median(values))
        if statistics.median(values) else float("inf"))


def summarise(runs, metrics):
    print(f"{'metric':28} {'unit':8} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    names = sorted(runs[0]["metrics"])
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, share = spread(values)
        bound = metrics[name]["bound"]
        flag = "ok" if share <= bound / 3 else (
            "WIDE" if share <= bound else "OVER BOUND")
        print(f"{name:28} {runs[0]['metrics'][name]['unit']:8} {med:14.6g} "
              f"{q1:14.6g} {q3:14.6g} {share:8.2%} {bound:6.2f} {flag}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    print(f"runs {len(runs)}, correct {correct}, failed {failed} of "
          f"{attempted} attempted")


def compare(before, after, metrics):
    ok = True
    if before["workload"] != after["workload"]:
        print(f"sets of different workloads: {before['workload']} vs "
              f"{after['workload']}")
        return 1
    before, after = before["runs"], after["runs"]
    for label, runs in (("before", before), ("after", after)):
        wrong = sum(not r["correct"] for r in runs)
        if not runs or wrong:
            print(f"{label}: {wrong} of {len(runs)} runs not correct")
            ok = False
    for name, spec in metrics.items():
        if not all(name in r["metrics"] for r in before + after):
            print(f"{name:20} not measured in every run  MISSING")
            ok = False
            continue
        m1 = statistics.median(r["metrics"][name]["value"] for r in before)
        m2 = statistics.median(r["metrics"][name]["value"] for r in after)
        if m1 <= 0:
            print(f"{name:20} median before is {m1:g}  UNUSABLE")
            ok = False
            continue
        worse = (m2 - m1) / m1 if spec["better"] == "lower" else (m1 - m2) / m1
        verdict = "ok" if worse <= spec["bound"] else "WORSE"
        ok &= verdict == "ok"
        print(f"{name:20} {m1:14.6g} -> {m2:14.6g}  worse by {worse:+8.2%} "
              f"(bound {spec['bound']:.2f}) {verdict}")
    if not ok:
        return 1

    def share(runs):
        return (sum(r["failed"] for r in runs),
                sum(r["attempted"] for r in runs))
    f1, a1 = share(before)
    f2, a2 = share(after)
    same = f1 * a2 == f2 * a1
    ok &= same
    print(f"failed share {f1}/{a1} vs {f2}/{a2}: "
          f"{'same' if same else 'DIFFERENT'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    spec, metrics = load_spec()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return compare(sets[0], sets[1], metrics)

    if not args.workload or args.runs < 2:
        parser.error("--workload and at least 2 --runs are required")
    seconds = spec["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        runs.append(run_once(args.workload, seed, seconds))
        print(f"seed {seed}: correct {runs[-1]['correct']}, attempted "
              f"{runs[-1]['attempted']}, failed {runs[-1]['failed']}",
              file=sys.stderr)
    summarise(runs, metrics)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "runs": runs}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
