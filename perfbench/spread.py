#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's run-to-run spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload sim-svm --runs 10 [--trace 1] [--record]

Runs the command of BENCHMARK.json for its run_seconds, once with each of
the seeds 1..runs, and prints for every metric its median and the distance
between the first and third quartile (statistics.quantiles(values, n=4))
as a share of the median: the spread the bounds in BENCHMARK.json are
sized against. With --record the spreads
are written to perfbench/noise.tsv (scope "trace" for traced runs), which
the benchmark prints beside each metric. Exits 1 if a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOISE = ROOT / "perfbench" / "noise.tsv"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    recorded = {}
    for workload in args.workload:
        values = {}
        for seed in range(1, args.runs + 1):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stdout + proc.stderr)
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} checks failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        scope = "trace" if args.trace == "1" else workload
        print(f"{scope}: {args.runs} runs, seeds 1..{args.runs}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name) if args.trace == "0" else None
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = f"  above a third of its bound {bound}"
            print(f"  {name:36} median {med:14.6g}  spread {spread:.4f}{flag}")
            recorded[(scope, name)] = (spread, len(vs))
        if args.trace == "1":
            break  # a traced run measures every layer whatever the workload

    if args.record:
        kept = {}
        if NOISE.exists():
            for line in NOISE.read_text().splitlines():
                cols = line.split("\t")
                if len(cols) == 4:
                    kept[(cols[0], cols[1])] = (float(cols[2]), int(cols[3]))
        kept.update(recorded)
        NOISE.write_text("".join(
            f"{s}\t{n}\t{spread:.4f}\t{runs}\n"
            for (s, n), (spread, runs) in sorted(kept.items())
        ))


if __name__ == "__main__":
    main()
