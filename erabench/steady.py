#!/usr/bin/env python3
"""Steadiness self-check for the benchmark.

Runs two sets of untraced runs of the same checkout and prints, per workload
and end-to-end metric, both medians, both quartile spreads and whether the
sets agree within the metric's bound from BENCHMARK.json:

* the spread of each set (third minus first quartile, as a share of the
  median) stays within the bound; the spread over both sets together is
  printed beside them;
* the two medians differ by no more than the bound, in either direction
  (the gap is taken as a share of the first median);
* the share of failed operations is exactly the same in both sets.

Run it from the root of the repository:

    python3 erabench/steady.py [--runs 10] [--workload NAME ...]

Every run uses the command and run_seconds of BENCHMARK.json.

Set A uses seeds 1..runs, set B seeds runs+1..2*runs, so the check also
covers the seed-to-seed variation of the inputs; the runs of the two sets
alternate. Exits 1 if any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SPEC = "BENCHMARK.json"


def run_once(command, workload, seed, seconds):
    """Runs the benchmark once; returns its result line and wall time."""
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    if out.returncode != 0:
        sys.exit(f"run failed ({' '.join(cmd)}):\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1]), wall


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workload", action="append", help="workload(s) to check (default: all)")
    args = parser.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        # The two sets alternate run by run, so a slow drift of the
        # machine's speed lands on both sets instead of between them.
        sets = [[], []]
        walls = []
        for i in range(args.runs):
            for s, first_seed in enumerate((1, args.runs + 1)):
                r, wall = run_once(spec["command"], workload, first_seed + i, seconds)
                sets[s].append(r)
                walls.append(wall)
                if not r["correct"]:
                    print(f"{workload}: a run reported incorrect answers")
                    ok = False
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        print(f"\n{workload}: failed share A={shares[0]:.6g} B={shares[1]:.6g}"
              f" {'same' if shares[0] == shares[1] else 'DIFFERENT'};"
              f" one run took {min(walls):.1f}..{max(walls):.1f} s")
        ok &= shares[0] == shares[1]
        print(f"  {'metric':<26} {'median A':>12} {'q1..q3 A':>25} {'spread A':>9}"
              f" {'median B':>12} {'spread B':>9} {'spread':>9} {'B vs A':>7} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            (ma, qa1, qa3, sa), (mb, _, _, sb) = (
                summarize([r["metrics"][name]["value"] for r in s]) for s in sets)
            # Positive when set B is worse; the check takes the size of the
            # gap, so a set B that is much better fails as well.
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            _, _, _, s_all = summarize([r["metrics"][name]["value"] for r in sets[0] + sets[1]])
            spread_ok = sa <= bound and sb <= bound
            agree = abs(worse) <= bound
            ok &= spread_ok and agree
            verdict = "ok" if spread_ok and agree else (
                "SPREAD" if not spread_ok else "APART")
            print(f"  {name:<26} {ma:>12.6g} {qa1:>12.6g}..{qa3:<12.6g} {sa:>9.2%}"
                  f" {mb:>12.6g} {sb:>9.2%} {s_all:>9.2%} {worse:>7.2%} {bound:>6.2f}  {verdict}")
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
