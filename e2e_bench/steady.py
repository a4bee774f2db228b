#!/usr/bin/env python3
"""Steadiness check: runs every workload repeatedly and prints, for each
end-to-end metric, the median and quartiles of its values next to the
bound in BENCHMARK.json.

    python3 e2e_bench/steady.py --runs 10 --seed 100 [--out FILE]

Run i uses seed (--seed + i) and alternates the workload order (forward on
even runs, reversed on odd ones), so a slow phase of the host does not
land on one workload only.  The spread is (Q3 - Q1) / median with the
quartiles of Python's statistics.quantiles(values, n=4); the bounds in
BENCHMARK.json were set from this script's output.  Every run is as long
as BENCHMARK.json's run_seconds.  --out writes every run's result as JSON
lines.  Exits non-zero if a run fails or a spread exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    elapsed = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady.py: {workload} seed {seed} failed (exit {done.returncode})")
    return json.loads(lines[-1]), elapsed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in names}
    out = open(args.out, "a") if args.out else None
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            result, elapsed = run_once(w, args.seed + i, spec["run_seconds"])
            results[w].append(result)
            share = result["failed"] / result["attempted"]
            print(f"run {i} {w} seed {args.seed + i}: {elapsed:.1f} s, "
                  f"failed share {share}", file=sys.stderr)
            if out:
                out.write(json.dumps({"workload": w, "seed": args.seed + i,
                                      "elapsed_s": elapsed, **result}) + "\n")
                out.flush()

    ok = True
    print(f"{'workload':14} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for w in names:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        ok = ok and all(r["correct"] for r in runs)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bound:
                flag, ok = "OVER", False
            elif spread > bound / 3:
                flag = "above a third"
            print(f"{w:14} {name:12} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:6.3f} {flag}")
        print(f"{w:14} failed shares {shares}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
