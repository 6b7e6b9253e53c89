#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the command in BENCHMARK.json once per seed for each workload (from
the repository root, with the configured run length) and prints, per
workload and metric, the median, the quartiles and the quartile spread as a
share of the median, as `statistics.quantiles(values, n=4)` gives them.

    python3 simbench/spread.py [--trace 0|1] [--seeds 1,2,...] [workload ...]

The per-run result lines are appended to the file named by --log, if given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--log")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    for workload in args.workloads:
        values = {}
        units = {}
        for seed in args.seeds.split(","):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", seed,
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": int(seed),
                                        "trace": int(args.trace), "result": result}) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n{workload} ({len(args.seeds.split(','))} seeds, {args.seconds} s runs, trace {args.trace})\n")
        print("| metric | unit | median | Q1 | Q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {name} | {units[name]} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.4f} | {bounds.get(name, '')} |")


if __name__ == "__main__":
    main()
