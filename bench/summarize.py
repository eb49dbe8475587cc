"""Median, quartiles and sample count of each end-to-end metric over runs.

    python3 bench/summarize.py

Reads every untraced run record in .bench_work/results/ and prints, per
workload and metric, the number of runs, the median, the quartiles and
the spread: the distance between the quartiles as a share of the median,
next to a third of the metric's bound, the level below which the
benchmark counts as steady.
"""

import json
import statistics
import sys
from collections import defaultdict

import spec
from run import RESULTS


def main():
    runs = defaultdict(list)
    for path in sorted(RESULTS.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs[record["workload"]].append(record)
    if not runs:
        print(f"no run records in {RESULTS}", file=sys.stderr)
        return 1
    steady = True
    for workload, _ in spec.WORKLOADS:
        records = runs.get(workload, [])
        print(f"{workload}: {len(records)} runs, seeds "
              f"{sorted(r['seed'] for r in records)}, "
              f"{sum(not r['problems'] for r in records)} correct")
        if len(records) < 2:
            continue
        for name, unit, _, bound in spec.END_TO_END:
            values = [r["metrics"][name] for r in records]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok
            print(f"  {name:<14} n={len(values):<3} median={med:<12.6g} "
                  f"q1={q1:<12.6g} q3={q3:<12.6g} {unit:<6} spread={spread:.4f} "
                  f"(bound/3={bound / 3:.4f}){'' if ok else '  NOT STEADY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
