#!/usr/bin/env python3
"""Steadiness report: repeat one workload with different seeds and print each
metric's median, quartiles and quartile spread as a share of the median.

Run from the repository root:

    python3 perfbench/steadiness.py --workload closed_uf_mixed --runs 10
    python3 perfbench/steadiness.py --workload closed_uf_lowp --runs 5

Each run is the closed-loop `--trace 0` invocation, which reports the
end-to-end metrics.  The benchmark command and run length come from
BENCHMARK.json; the spread is computed as `statistics.quantiles(values, n=4)`
gives the quartiles, and is flagged against each metric's bound (and against
a third of it, the margin the bounds were set with).  Every run's figures are
printed too.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"seed {seed}: exit {done.returncode}")
    for line in lines[:-1]:
        if line.startswith(("rounds_per_s:", "setup_s:", "chunk rates:")):
            print(f"  seed {seed}: {line}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    opts = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    seconds = opts.seconds if opts.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in range(opts.first_seed, opts.first_seed + opts.runs):
        result = run_once(bench["command"], opts.workload, seed, seconds)
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: a check failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{opts.workload}: {opts.runs} runs of {seconds} s")
    print(f"  {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}  bound")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds[name]
        verdict = f"{bound:<5} " + (
            "ok" if spread < bound / 3 else ("within" if spread <= bound else "TOO WIDE")
        )
        print(f"  {name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f}  {verdict}")
        print(f"    runs: {' '.join(f'{v:.6g}' for v in vals)}")


if __name__ == "__main__":
    main()
