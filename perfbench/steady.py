#!/usr/bin/env python3
"""Steadiness check: run one workload k times and print, for each metric,
the median, the quartiles and the quartile spread as a share of the median.

    python3 perfbench/steady.py --workload suite-steady --runs 5 --seconds 20
    python3 perfbench/steady.py --workload gen-thrash --runs 10 --seeds 1-10

Runs are untraced, so the metrics are the end-to-end ones. The script
fails if any run reports an output check failure or a failed cell, or if
the simulated counts of two runs of one seed differ (with one seed for
every run, the default, that is every run). With --bound-file it also fails
when a metric's spread exceeds a third of the bound BENCHMARK.json gives it.
"""

import argparse
import json
import statistics
import subprocess
import sys

CARGO = ["cargo", "run", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml", "--"]


def parse_seeds(spec, runs, seed):
    if spec is None:
        return [seed] * runs
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload, seed, seconds):
    argv = CARGO + ["--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"run failed (exit {proc.returncode}): {' '.join(argv)}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seeds", help="a-b or a,b,c; overrides --runs/--seed")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--bound-file", help="BENCHMARK.json to check spreads against")
    args = ap.parse_args()

    seeds = parse_seeds(args.seeds, args.runs, args.seed)
    infos, results = [], []
    for seed in seeds:
        info, result = run_once(args.workload, seed, args.seconds)
        infos.append(info)
        results.append(result)
        print(f"seed {seed}: rounds {info['rounds']}, digest {info['counts_digest']}, "
              f"attempted {result['attempted']}, failed {result['failed']}",
              file=sys.stderr)

    problems = []
    if not all(r["correct"] for r in results):
        problems.append("an output check failed")
    if any(r["failed"] for r in results):
        problems.append("a cell failed")
    by_seed = {}
    for seed, info in zip(seeds, infos):
        by_seed.setdefault(seed, set()).add(info["counts_digest"])
    for seed, digests in by_seed.items():
        if len(digests) != 1:
            problems.append(f"seed {seed}: simulated counts differ: {sorted(digests)}")

    bounds = {}
    if args.bound_file:
        with open(args.bound_file) as f:
            spec = json.load(f)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    host = infos[0]["host"]
    print(f"host: nproc {host['nproc']}, {host['cpu_model']}, {host['rustc']}, "
          f"commit {host['commit']}")
    print(f"workload {args.workload}, {len(seeds)} runs, seeds {seeds}")
    print(f"{'metric':36} {'unit':>10} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if name in bounds and spread > bounds[name] / 3:
            flag = f"  > bound/3 ({bounds[name] / 3:.4f})"
            problems.append(f"{name}: spread {spread:.4f} exceeds a third of its bound")
        print(f"{name:36} {unit:>10} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}{flag}")
    for p in problems:
        print(f"FAIL: {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
