#!/usr/bin/env python3
"""Runs the benchmark several times on fresh seeds and prints, per metric,
the median, the quartiles and the spread (quartile distance over median).

    python3 szbench/spread.py --workload gen-cold --runs 10 [--seed 1]
                              [--seconds S] [--trace 0|1]

Run from the repository root. The command and the run length come from
BENCHMARK.json; run i uses seed `--seed` + i.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    values, units, shares = {}, {}, set()
    for i in range(args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(args.seed + i),
            "--seconds", str(args.seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit(f"run {i}: exit code {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"run {i}: correct is false")
        shares.add((result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"run {i}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            file=sys.stderr)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"{'metric':<22} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<22} {units[name]:<9} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {'' if bound is None else bound:>6}")
    print("failed/attempted:", sorted(shares))


if __name__ == "__main__":
    main()
