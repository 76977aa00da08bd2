#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one run per seed.

Run from the root of the repository:

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads mesh_flit --seeds 1-5

For each workload and end-to-end metric it prints the median of the
runs and their spread: the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median. A
spread at or under a third of the metric's bound in BENCHMARK.json
reads "ok".
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            r = run(workload, seed, bench["run_seconds"])
            if not r["correct"] or r["failed"]:
                print(f"{workload} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}")
                ok = False
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= bounds[name] / 3 else "WIDE"
            if verdict != "ok" and name != "setup_s":
                ok = False
            print(f"{workload:14s} {name:14s} median {med:12.6g} spread "
                  f"{spread:7.4f} bound {bounds[name]:5.3f} {verdict}  "
                  f"{' '.join(f'{x:.6g}' for x in xs)}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
