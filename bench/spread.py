#!/usr/bin/env python3
"""Run the benchmark N times per workload, each time with another seed, and
print each end-to-end metric's median, quartiles and spread (distance between
the first and third quartile as a share of the median), next to its bound.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [--workloads a,b]
                            [--trace 0|1] [--json out.json]

This is the check the driver applies to the benchmark itself (every spread
within its bound, setup_s exempt), and one side of a two-commit comparison:
run it in both checkouts, alternating, and compare medians (README.md).
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default="")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    defs = spec["per_layer"] if args.trace else spec["end_to_end"]

    report = {}
    bad = 0
    for name in names:
        values = {d["name"]: [] for d in defs}
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            walls.append(time.time() - t0)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                sys.exit(f"{name} seed {seed}: incorrect run: {line}")
            for d in defs:
                values[d["name"]].append(line["metrics"][d["name"]]["value"])
            print(f"  {name} seed {seed}: {walls[-1]:.1f}s", file=sys.stderr)
        print(f"\n{name}: {args.runs} runs, wall median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        report[name] = {}
        for d in defs:
            v = values[d["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = d.get("bound")
            flag = ""
            if bound is not None and d["name"] != "setup_s":
                if spread > bound:
                    flag, bad = "  OVER BOUND", bad + 1
                elif spread > bound / 3:
                    flag = "  over bound/3"
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {d['name']:34s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.2%} {b:>6s}{flag}")
            report[name][d["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": v}
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
