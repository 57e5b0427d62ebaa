#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve-steady --seeds 1-10 [--trace 0]

For every metric of the final result lines it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread: the
distance between the quartiles as a share of the median, which is what
each end_to_end bound in BENCHMARK.json is compared against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or contract["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        final = json.loads(lines[-1])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}"
                                           for k, v in final["metrics"].items()), flush=True)
        for name, m in final["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
