#!/usr/bin/env python3
"""Interleaved parent/change pitperf runs with per-run rusage and CPU steal.

    python3 run_pairs.py --parent DIR --change DIR --out RUNS \\
        --workloads search submit mixed --seeds 2 11 --seconds 30 [--trace]

DIR is a checkout whose `.bench_build/pitperf` is already built (one
`python3 perfbench/run.py ...` run there builds it). Each run executes that
binary directly, from DIR, with the arguments `perfbench/run.py` would
pass, and saves stdout to `RUNS/<side>-<workload>-<seed>.txt` in
run.py's format, so `perfbench/compare.py` and `../18/pairs.py` read it.
Even seeds run the parent first, odd seeds the change first.

`os.wait4` returns the run's own getrusage (minor and major faults, user
and system CPU seconds); CPU steal is the share of steal ticks in
/proc/stat across the run. One line per run is appended to
`RUNS/rusage.txt`. With --trace the runs are traced (--trace 1) and the
span files land in `RUNS/traces/`.
"""
import argparse
import json
import os
import subprocess


def cpu_ticks():
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    return sum(fields[:8]), fields[7]  # total (user..steal), steal


def run_once(root, workload, seed, seconds, trace_out):
    cmd = [os.path.join(root, ".bench_build", "pitperf"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace_out else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    total0, steal0 = cpu_ticks()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    total1, steal1 = cpu_ticks()
    steal = 100.0 * (steal1 - steal0) / max(1, total1 - total0)
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    text = "\n".join(lines[:-1]) + "\n"
    for name, m in result["metrics"].items():
        text += f"# {name} = {m['value']:.6g} {m['unit']}\n"
    text += json.dumps(result) + "\n"
    return proc.returncode, text, result, usage, steal


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs=2, type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    if args.trace:
        os.makedirs(os.path.join(args.out, "traces"), exist_ok=True)
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    log = open(os.path.join(args.out, "rusage.txt"), "a")
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        order = ["parent", "change"] if seed % 2 == 0 else ["change", "parent"]
        for w in args.workloads:
            for side in order:
                stem = f"{side}-{w}-{seed}"
                trace_out = (os.path.abspath(
                    os.path.join(args.out, "traces", stem + ".json"))
                             if args.trace else None)
                code, text, result, ru, steal = run_once(
                    roots[side], w, seed, args.seconds, trace_out)
                with open(os.path.join(args.out, stem + ".txt"), "w") as f:
                    f.write(text)
                m = result["metrics"]
                nan = {"value": float("nan")}  # traced runs omit these
                line = (f"{side} {w} {seed} exit={code} "
                        f"correct={result['correct']} "
                        f"minflt={ru.ru_minflt} majflt={ru.ru_majflt} "
                        f"utime_s={ru.ru_utime:.2f} stime_s={ru.ru_stime:.2f} "
                        f"steal_pct={steal:.1f} "
                        f"throughput={m.get('throughput_per_s', nan)['value']:.1f} "
                        f"peak_rss_mb={m.get('peak_rss_mb', nan)['value']:.2f}")
                print(line, flush=True)
                log.write(line + "\n")
                log.flush()


if __name__ == "__main__":
    main()
