"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload full-sbn --seeds 1-10 --seconds 35

Runs `run.py` once per seed, each in its own process, and prints for every
metric the median, the quartiles (statistics.quantiles, n=4) and the
interquartile range as a share of the median, next to the metric's bound
from BENCHMARK.json. `--trace 1` does the same for the per-layer metrics.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    values = {m["name"]: [] for m in declared}
    failures = 0
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            failures += 1
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: exit {proc.returncode}, failed {result['failed']}"
              f"/{result['attempted']}", flush=True)
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for m in declared:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = m.get("bound")
        flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
        print(f"{m['name']:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
