#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

From the repository root:

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads cold-sweep --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/ledger/0001.json

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1)
as a share of the median, next to the metric's bound from BENCHMARK.json.
A spread above a third of the bound is flagged. With --trace it runs the
traced mode once per seed and prints the per-layer medians instead.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["perfbench"] if len(lines) > 1 else {}
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect: {detail.get('problems')}")
    return result, detail, elapsed


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", default="", help="comma list (default: all)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default="", help="write the medians as a JSON ledger entry")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    trace = 1 if args.trace else 0
    specs = bench["per_layer"] if trace else bench["end_to_end"]

    entry = {"seconds": seconds, "seeds": seeds, "trace": bool(trace), "workloads": {}}
    worst = 0.0
    for w in workloads:
        values = {m["name"]: [] for m in specs}
        times = []
        host = None
        for seed in seeds:
            result, detail, elapsed = run_once(bench["command"], w, seed, seconds, trace)
            host = detail.get("host", host)
            times.append(elapsed)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {w}: {len(seeds)} runs, {min(times):.1f}-{max(times):.1f} s each")
        rows = {}
        for m in specs:
            med, q1, q3, spread = summarize(values[m["name"]])
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else "WIDE"
                worst = max(worst, spread / bound)
            print(f"  {m['name']:32s} median {med:14.6g} {m['unit']:6s} q1 {q1:12.6g} q3 {q3:12.6g}"
                  f" spread {spread:7.2%}" + (f" bound {bound:.2f} {flag}" if bound is not None else ""))
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"],
                               "values": values[m["name"]]}
        entry["workloads"][w] = {"host": host, "run_s": [round(t, 1) for t in times], "metrics": rows}
    print(f"largest spread / bound: {worst:.2f} (target below 0.33)")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(entry, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
