#!/usr/bin/env python3
"""Spread of the end-to-end metrics over a set of runs, the driver's way.

    spread.py DIR         one set: quartile distance / median against the bound
    spread.py DIR1 DIR2   two sets: also whether DIR2's median is worse than
                          DIR1's by more than the bound

DIR holds <workload>-<seed>.json files, each the last output line of one
untraced run (benchmarks/repeat.sh writes them). Exits 1 when a gated
cell is outside its bound.
"""
import glob
import json
import os
import statistics
import sys


def load(directory):
    runs = {}  # workload -> metric -> values
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        workload = os.path.basename(path).rsplit("-", 1)[0]
        with open(path) as f:
            line = json.load(f)
        if not line["correct"] or line["failed"]:
            sys.exit(f"{path}: run failed its correctness check")
        for name, m in line["metrics"].items():
            runs.setdefault(workload, {}).setdefault(name, []).append(m["value"])
    return runs


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = [load(d) for d in argv[1:]]
    bad = 0
    print(f"{'workload':14} {'metric':18} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}  verdict")
    for w in (w["name"] for w in bench["workloads"]):
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = sets[0][w][name]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            reach = (max(values) - min(values)) / med
            verdict = "ok" if spread <= bound else "TOO WIDE"
            if name == "setup_s":
                verdict = "not gated"
            if len(sets) == 2:
                med2 = statistics.median(sets[1][w][name])
                worse = (med2 - med) / med if m["better"] == "lower" else (med - med2) / med
                verdict += f"; second median {worse:+.1%}"
                if worse > bound:
                    verdict += " WORSE THAN BOUND"
            if "TOO WIDE" in verdict or "WORSE" in verdict:
                bad += 1
            print(f"{w:14} {name:18} {len(values):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {reach:9.2%} {bound:6.0%}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
