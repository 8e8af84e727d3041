#!/usr/bin/env python3
"""Paired statistics for interleaved parent/change pitperf runs.

    python3 pairs.py <runs-dir> <workload>...

Reads `<runs>/<parent|change>-<workload>-<seed>.txt` (the saved stdout of
`perfbench/run.py`), pairs the two sides by seed, and prints per
end-to-end metric: each side's quartiles and median (inclusive method),
the number of pairs the change wins (ties count for neither), whether the
medians differ by more than the parent's interquartile range, and each
side's interquartile range over its median.
"""
import glob
import json
import re
import statistics
import sys

METRICS = [("setup_s", "lower"), ("peak_rss_mb", "lower"), ("p50_us", "lower"),
           ("tail_us", "lower"), ("throughput_per_s", "higher")]


def last(path):
    with open(path) as f:
        return json.loads([line for line in f if line.startswith("{")][-1])


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], statistics.median(values), q[2]


def main():
    runs = sys.argv[1]
    for w in sys.argv[2:]:
        seeds = sorted(int(re.search(r"-(\d+)\.txt$", p).group(1))
                       for p in glob.glob(f"{runs}/parent-{w}-*.txt"))
        par = {s: last(f"{runs}/parent-{w}-{s}.txt") for s in seeds}
        chg = {s: last(f"{runs}/change-{w}-{s}.txt") for s in seeds}
        print(f"## {w}: {len(seeds)} pairs, seeds {seeds}")
        for name, side in (("parent", par), ("change", chg)):
            print(f"{name}: correct {all(side[s]['correct'] for s in seeds)}, "
                  f"failed {sum(side[s]['failed'] for s in seeds)} of "
                  f"{sum(side[s]['attempted'] for s in seeds)}")
        print(f"{'metric':18} {'parent q1/median/q3':>32} "
              f"{'change q1/median/q3':>32} {'wins':>6} {'|dmed|>pIQR':>12} "
              f"{'pIQR/med':>9} {'cIQR/med':>9}")
        for m, better in METRICS:
            pv = [par[s]["metrics"][m]["value"] for s in seeds]
            cv = [chg[s]["metrics"][m]["value"] for s in seeds]
            pq, cq = quartiles(pv), quartiles(cv)
            wins = sum(1 for p, c in zip(pv, cv)
                       if c != p and (c < p) == (better == "lower"))
            piqr = pq[2] - pq[0]
            print(f"{m:18} {pq[0]:10.4g}/{pq[1]:10.4g}/{pq[2]:10.4g} "
                  f"{cq[0]:10.4g}/{cq[1]:10.4g}/{cq[2]:10.4g} "
                  f"{wins:3d}/{len(seeds):<2d} {str(abs(cq[1] - pq[1]) > piqr):>12} "
                  f"{piqr / pq[1]:9.3f} {(cq[2] - cq[0]) / cq[1]:9.3f}")
        print()


if __name__ == "__main__":
    main()
