#!/usr/bin/env python3
"""Steadiness check for the phpf benchmark.

Runs one workload in two sets of repeated runs (each run with its own
seed, each as long as BENCHMARK.json's run_seconds) and prints, per end-to-end metric, each set's median and
quartiles, the spread (interquartile distance over the median), and
whether the sets agree within the metric's bound from BENCHMARK.json:

  * the spread of every set stays within the bound (set-up time is
    exempt: it is judged on its median alone);
  * the two sets' medians differ, in either direction, by no more than
    the bound, taken as a share of the smaller median;
  * the share of failed operations is exactly the same in both sets.

Usage, from the repository root:

  python3 perfbench/steady.py --workload sim-kernels [--runs 10]
      [--first-seed 1]

Exit status 0 when every metric agrees, 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys

SETS = 2


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: seed {seed}, exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"run reported incorrect output: seed {seed}")
    return result


def describe(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    seed = args.first_seed
    for s in range(SETS):
        results = []
        for _ in range(args.runs):
            r = run_once(bench["command"], args.workload, seed, seconds)
            print(f"set {s + 1} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                flush=True)
            results.append(r)
            seed += 1
        sets.append(results)

    ok = True
    print(f"\nworkload {args.workload}: {SETS} sets x {args.runs} runs"
          f" x {seconds} s")
    header = f"{'metric':<14} {'bound':>6}"
    for s in range(SETS):
        header += f" | set{s + 1} median {'q1':>10} {'q3':>10} {'spread':>7}"
    print(header + " | agree")
    for name, m in metrics.items():
        line = f"{name:<14} {m['bound']:>6.3f}"
        meds = []
        agree = True
        for results in sets:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, spread = describe(values)
            meds.append(med)
            line += f" | {med:>11.6g} {q1:>10.6g} {q3:>10.6g} {spread:>7.4f}"
            if name != "setup_s" and spread > m["bound"]:
                agree = False
        lo, hi = min(meds), max(meds)
        if (hi - lo) / lo > m["bound"]:
            agree = False
        ok = ok and agree
        print(line + f" | {'yes' if agree else 'NO'}")
    shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
              for rs in sets]
    per_run = {r["failed"] / r["attempted"] for rs in sets for r in rs}
    same = len(per_run) == 1
    print(f"failed share per set: {shares}; identical in every run: "
          f"{'yes' if same else 'NO'}")
    ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
