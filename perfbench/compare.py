#!/usr/bin/env python3
"""Compare two sets of pitperf results against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py --base base_*.txt --new new_*.txt

Each file is the saved stdout of one `perfbench/run.py` run (the `# detail`
line carries the host fingerprint, the last line the result). All files
must be runs of one workload on one host fingerprint — the script refuses
to compare anything else. For every end-to-end metric it prints both
medians, the change, and whether the change stays within the metric's
bound; it exits 1 when a metric regressed past its bound.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    detail, result = None, None
    with open(path) as f:
        for line in f:
            if line.startswith("# detail "):
                detail = json.loads(line[len("# detail "):])
            elif line.startswith("{"):
                result = json.loads(line)
    if detail is None or result is None:
        sys.exit(f"compare.py: {path} is not a pitperf run output")
    return detail, result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--benchmark",
                    default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}

    runs = {side: [load(p) for p in getattr(args, side)]
            for side in ("base", "new")}
    keys = {(d["workload"], d["trace"], json.dumps(d["fingerprint"],
                                                   sort_keys=True))
            for side in runs.values() for d, _ in side}
    if len(keys) != 1:
        print("compare.py: refusing to compare runs of different workloads, "
              "trace modes or host fingerprints:", file=sys.stderr)
        for k in sorted(keys):
            print("  ", k, file=sys.stderr)
        return 2
    if next(iter(keys))[1]:
        print("compare.py: compares untraced (--trace 0) runs only",
              file=sys.stderr)
        return 2
    for side in runs.values():
        for _, r in side:
            if not r["correct"]:
                print("compare.py: a run reported incorrect outputs",
                      file=sys.stderr)
                return 2

    regressed = False
    for name, spec in bounds.items():
        med = {side: statistics.median(r["metrics"][name]["value"]
                                       for _, r in runs[side])
               for side in runs}
        change = (med["new"] - med["base"]) / med["base"] if med["base"] else 0.0
        worse = change if spec["better"] == "lower" else -change
        status = "REGRESSED" if worse > spec["bound"] else "ok"
        regressed |= status != "ok"
        print(f"{name:18s} {med['base']:14.4f} -> {med['new']:14.4f} "
              f"{spec['unit']:5s} {change:+7.1%} (bound {spec['bound']:.0%}, "
              f"better {spec['better']}) {status}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
