#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Run from the root of a checkout:

    python3 perfbench/steadiness.py --workloads build,append,serve \
        --seeds 1-10 --seconds 12 --out .bench_build/steadiness.json

For every workload and metric it prints the median, the quartiles and
the spread: (Q3 - Q1) / median, with the quartiles taken as
statistics.quantiles(values, n=4) gives them. BENCHMARK.json's bound
for a metric should stay at least three times its spread.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="build,append,serve")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None, help="write every run's result here as JSON")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    secs = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench.get("end_to_end", [])}

    runs = {}
    for wl in args.workloads.split(","):
        runs[wl] = []
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(secs), "--trace", str(args.trace)]
            t0 = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - t0
            if p.returncode != 0:
                sys.exit(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr}{p.stdout[-2000:]}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"{wl} seed {seed}: incorrect output: {res}")
            res["wall_s"] = wall
            res["seed"] = seed
            steal = [l for l in p.stdout.splitlines() if l.startswith("cpu steal during the run:")]
            res["steal_pct"] = float(steal[0].split()[-1].rstrip("%")) if steal else None
            runs[wl].append(res)
            print(f"{wl} seed {seed}: {wall:.1f}s wall, cpu steal {res['steal_pct']}%", file=sys.stderr)

    summary = {}
    for wl, rs in runs.items():
        print(f"\n{wl}: {len(rs)} runs, wall median {statistics.median(r['wall_s'] for r in rs):.1f}s")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        summary[wl] = {}
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            summary[wl][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            b = bounds.get(name)
            flag = "" if b is None or spread < b / 3 else "  <-- above bound/3"
            print(f"  {name:32} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {b if b is not None else '-':>6}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": secs, "runs": runs, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()
