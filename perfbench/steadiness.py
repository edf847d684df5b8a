#!/usr/bin/env python3
"""Steadiness report for the CausalEC benchmark.

Runs the benchmark K times per workload, each with another seed, and prints
for every metric the median, the quartiles and (Q3 - Q1) / median, the
spread BENCHMARK.json's bounds are judged against. Run from the root of a
checkout:

    python3 perfbench/steadiness.py --runs 10 [--workloads a,b] [--trace 0]
        [--first-seed 1] [--out results.jsonl]

--out appends one JSON line per run ({"workload", "seed", "result"}).
Given two such files, --compare A B prints, per workload and end-to-end
metric, how far B's median lies from A's on the worse side, as a share of
A's median, against the metric's bound:

    python3 perfbench/steadiness.py --compare first.jsonl second.jsonl
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
        return json.load(f)


def run_once(spec, workload, seed, trace):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(rows, bounds):
    by_workload = {}
    for row in rows:
        by_workload.setdefault(row["workload"], []).append(row["result"])
    for workload, results in by_workload.items():
        ok = all(r["correct"] for r in results)
        print(f"{workload}: {len(results)} runs, all correct: {ok}")
        print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>9} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                continue
            med, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            flag = "" if bound is None or name == "setup_s" or rel <= bound / 3 else "  <-- over bound/3"
            print(f"  {name:36} {med:14.4f} {q1:14.4f} {q3:14.4f} {rel:9.4f} "
                  f"{bound if bound is not None else '-':>6}{flag}")


def read_rows(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(path_a, path_b, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    rows_a, rows_b = read_rows(path_a), read_rows(path_b)
    failed = False
    for workload in sorted({r["workload"] for r in rows_a}):
        a = [r["result"]["metrics"] for r in rows_a if r["workload"] == workload]
        b = [r["result"]["metrics"] for r in rows_b if r["workload"] == workload]
        if not b:
            continue
        for name, m in metrics.items():
            ma = statistics.median(x[name]["value"] for x in a)
            mb = statistics.median(x[name]["value"] for x in b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            failed |= verdict != "ok"
            print(f"{workload:14} {name:22} {ma:14.4f} {mb:14.4f} {worse:+8.4f} "
                  f"(bound {m['bound']}) {verdict}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default="")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    workloads = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    for workload in workloads:
        for i in range(args.runs):
            seed = args.first_seed + i
            row = {"workload": workload, "seed": seed,
                   "result": run_once(spec, workload, seed, args.trace)}
            rows.append(row)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(row) + "\n")
    report(rows, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
