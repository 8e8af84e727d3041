#!/usr/bin/env python3
"""Seeded-mutation table for the benchmark gate.

Copies one set of BENCH_*.json files into a temporary directory, applies
one mutation at a time, runs two versions of check_bench.py on the
result, and prints a markdown table with each script's verdict for the
bar the mutation targets.

    python3 mutate.py OLD_CHECK_BENCH NEW_CHECK_BENCH JSON_DIR

The old script prints nothing for some bars when they hold; its verdict
is then reported as "pass (silent)". "+ schema FAIL" means the script
also printed a schema failure (missing field, wrong type) for the file.
"""
import copy
import json
import pathlib
import re
import subprocess
import sys
import tempfile

# bar id -> (file, field in the new spec, regex of the old script's line)
BARS = {
    "kernels.bench": ("BENCH_kernels.json", "bench",
                      r"bench != 'kernels_backend_compare'"),
    "kernels.forward": ("BENCH_kernels.json", "best_s1_speedup.forward",
                        r"stride-1 (blocked-over-scalar )?forward"),
    "kernels.backward_input": ("BENCH_kernels.json",
                               "best_s1_speedup.backward_input",
                               r"stride-1 (blocked-over-scalar )?"
                               r"backward_input"),
    "kernels.backward_weight": ("BENCH_kernels.json",
                                "best_s1_speedup.backward_weight",
                                r"stride-1 (blocked-over-scalar )?"
                                r"backward_weight"),
    "kernels.specialized": ("BENCH_kernels.json", "best_specialized_speedup",
                            r"specialized"),
    "runtime.speedup": ("BENCH_runtime.json",
                        "worst_batched_temponet_speedup",
                        r"worst_batched_temponet_speedup"),
    "runtime.verify": ("BENCH_runtime.json", "verify_overhead_frac",
                       r"verify_overhead_frac"),
    "serve.batched": ("BENCH_serve.json", "batched_over_single_speedup",
                      r"batched_over_single_speedup"),
    "quant.macs": ("BENCH_quant.json", "gap8_macs_all_match",
                   r"gap8_macs_all_match"),
    "quant.int8": ("BENCH_quant.json", "worst_batched_temponet_int8_speedup",
                   r"worst_batched_temponet_int8_speedup"),
    "stream.int8": ("BENCH_stream.json", "int8_over_fp32_stream_speedup",
                    r"int8_over_fp32_stream_speedup"),
    "stream.tick": ("BENCH_stream.json", "tick_over_unbatched_speedup",
                    r"tick_over_unbatched_speedup"),
    "stream.rows_single": ("BENCH_stream.json", "mode_rows.single",
                           r"no 'single' rows"),
    "stream.rows_unbatched": ("BENCH_stream.json", "mode_rows.unbatched",
                              r"no 'unbatched' rows"),
    "stream.rows_tick": ("BENCH_stream.json", "mode_rows.tick",
                         r"no 'tick' rows"),
    "registry.dedup": ("BENCH_registry.json", "stream_fleet.dedup_ratio",
                       r"stream_fleet dedup_ratio"),
    "registry.memo": ("BENCH_registry.json", "memoized_recompile_speedup",
                      r"memoized_recompile_speedup"),
    "sessions.sharded": ("BENCH_sessions.json", "sharded_over_single_speedup",
                         r"sharded_over_single_speedup"),
    "sessions.resident": ("BENCH_sessions.json", "max_resident",
                          r"no resident row at >= 100k"),
    "sessions.evictions": ("BENCH_sessions.json", "evictions_at_100k",
                           r"resident (stepped with|saw)"),
    "frontend.bench": ("BENCH_frontend.json", "bench",
                       r"bench != 'frontend'"),
    "frontend.goodput": ("BENCH_frontend.json",
                         "overload.goodput_over_capacity",
                         r"overload goodput_over_capacity"),
    "frontend.shed_p99": ("BENCH_frontend.json", "shed_probe.shed_p99_ms",
                          r"shed_probe shed_p99_ms"),
    "frontend.overload_errors": ("BENCH_frontend.json", "overload.errors",
                                 r": overload recorded"),
    "frontend.probe_errors": ("BENCH_frontend.json", "shed_probe.errors",
                              r": shed_probe recorded"),
    "frontend.stream_errors": ("BENCH_frontend.json", "stream.errors",
                               r": stream recorded"),
    "frontend.stream_steps": ("BENCH_frontend.json", "stream.steps",
                              r"stream ran no steps"),
}

# bar id -> its condition field, for the conditional bars
CONDITIONS = {
    "kernels.specialized": ("fp32_isa", "base"),
    "serve.batched": ("hardware_threads", 1),
    "quant.int8": ("i8_kernel_variant", "v4"),
    "stream.int8": ("i8_kernel_variant", "v4"),
    "stream.tick": ("hardware_threads", 1),
    "sessions.sharded": ("hardware_threads", 1),
    "frontend.goodput": ("hw_threads", 1),
    "frontend.shed_p99": ("shed_probe.shed", 0),
}


def get(d, path):
    for part in path.split("."):
        d = d[part]
    return d


def put(d, path, value):
    *parents, leaf = path.split(".")
    for part in parents:
        d = d[part]
    d[leaf] = value


def drop(d, path):
    *parents, leaf = path.split(".")
    for part in parents:
        d = d[part]
    del d[leaf]


def s1_rows(kernel, value):
    def apply(d):
        for r in d["results"]:
            if r["kernel"] == kernel and r["shape"].endswith("_s1"):
                r["speedup"] = value
        d["best_s1_speedup"][kernel] = value
    return apply


def specialized(d):
    for r in d["specialized"]:
        if not r["kernel"].endswith("/generic"):
            r["speedup"] = 1.0
    d["best_specialized_speedup"] = 1.0


def no_mode(mode):
    def apply(d):
        d["results"] = [r for r in d["results"] if r["mode"] != mode]
        d["mode_rows"][mode] = 0
    return apply


def no_100k(d):
    d["resident"] = [r for r in d["resident"] if r["resident"] < 100000]
    d["max_resident"] = max(r["resident"] for r in d["resident"])
    d["evictions_at_100k"] = 0


def evictions(d):
    for r in d["resident"]:
        if r["resident"] >= 100000:
            r["evictions"] = 3
    d["evictions_at_100k"] = 3


def shed_slow(d):
    d["shed_probe"]["shed"] = 5
    d["shed_probe"]["shed_p99_ms"] = 300.0


def setter(path, value):
    return lambda d: put(d, path, value)


# bar id -> (description, mutation) pushing the value past the bound
PAST_BOUND = {
    "kernels.bench": ("bench = \"other\"", setter("bench", "other")),
    "kernels.forward": ("stride-1 forward rows and aggregate 1.5",
                        s1_rows("forward", 1.5)),
    "kernels.backward_input": ("stride-1 backward_input rows and "
                               "aggregate 1.5", s1_rows("backward_input",
                                                        1.5)),
    "kernels.backward_weight": ("stride-1 backward_weight rows and "
                                "aggregate 1.5", s1_rows("backward_weight",
                                                         1.5)),
    "kernels.specialized": ("non-generic rows and aggregate 1.0",
                            specialized),
    "runtime.speedup": ("1.5", setter("worst_batched_temponet_speedup", 1.5)),
    "runtime.verify": ("0.2", setter("verify_overhead_frac", 0.2)),
    "serve.batched": ("1.5", setter("batched_over_single_speedup", 1.5)),
    "quant.macs": ("false", setter("gap8_macs_all_match", False)),
    "quant.int8": ("1.2", setter("worst_batched_temponet_int8_speedup",
                                 1.2)),
    "stream.int8": ("1.2", setter("int8_over_fp32_stream_speedup", 1.2)),
    "stream.tick": ("1.5", setter("tick_over_unbatched_speedup", 1.5)),
    "stream.rows_single": ("no single rows, count 0", no_mode("single")),
    "stream.rows_unbatched": ("no unbatched rows, count 0",
                              no_mode("unbatched")),
    "stream.rows_tick": ("no tick rows, count 0", no_mode("tick")),
    "registry.dedup": ("1.2", setter("stream_fleet.dedup_ratio", 1.2)),
    "registry.memo": ("5.0", setter("memoized_recompile_speedup", 5.0)),
    "sessions.sharded": ("1.5", setter("sharded_over_single_speedup", 1.5)),
    "sessions.resident": ("100k row removed, max 10000", no_100k),
    "sessions.evictions": ("3 evictions in the 100k row", evictions),
    "frontend.bench": ("bench = \"other\"", setter("bench", "other")),
    "frontend.goodput": ("0.5", setter("overload.goodput_over_capacity",
                                       0.5)),
    "frontend.shed_p99": ("shed 5, shed_p99_ms 300", shed_slow),
    "frontend.overload_errors": ("1", setter("overload.errors", 1)),
    "frontend.probe_errors": ("1", setter("shed_probe.errors", 1)),
    "frontend.stream_errors": ("1", setter("stream.errors", 1)),
    "frontend.stream_steps": ("0", setter("stream.steps", 0)),
}


def run(script, directory):
    proc = subprocess.run([sys.executable, str(script), str(directory)],
                          capture_output=True, text=True, check=False)
    return proc.stdout.splitlines()


def is_schema(line):
    return line.startswith("FAIL") and re.search(
        r"missing field|field '[^']*' is ", line)


def verdict(lines, bar, pattern, silent):
    """The bar line's verdict, flagged when the file also failed schema."""
    file = BARS[bar][0]
    mine = [line for line in lines if f" {file}: " in line]
    found = next((line.split()[0] for line in mine
                  if not is_schema(line) and re.search(pattern, line)),
                 silent)
    return found + (" + schema FAIL" if any(map(is_schema, mine)) else "")


def main(argv):
    old, new, source = (pathlib.Path(a).resolve() for a in argv[1:4])
    originals = {p.name: json.loads(p.read_text())
                 for p in sorted(source.glob("BENCH_*.json"))}
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)

        def case(kind, bar, what, mutate):
            file = BARS[bar][0]
            for name, data in originals.items():
                d = copy.deepcopy(data)
                if name == file:
                    mutate(d)
                (work / name).write_text(json.dumps(d))
            _, field, pattern = BARS[bar]
            rows.append((kind, bar, what,
                         verdict(run(old, work), bar, pattern,
                                 "pass (silent)"),
                         verdict(run(new, work), bar,
                                 rf"^\w+  \S+: {re.escape(field)} = ",
                                 "none")))

        for bar in BARS:
            case("as measured", bar, "none", lambda d: None)
        for bar, (what, mutate) in PAST_BOUND.items():
            case("past bound", bar, what, mutate)
        for bar, (field, value) in CONDITIONS.items():
            case("condition flipped", bar, f"{field} = {json.dumps(value)}",
                 setter(field, value))
        for bar, (_, field, _) in BARS.items():
            case("field deleted", bar, field,
                 lambda d, f=field: drop(d, f))
        for bar, (field, _) in CONDITIONS.items():
            case("condition deleted", bar, field,
                 lambda d, f=field: drop(d, f))
        for bar, (file, field, _) in BARS.items():
            if not isinstance(get(originals[file], field), bool):
                case("retyped true", bar, field, setter(field, True))
        for bar, (field, _) in CONDITIONS.items():
            case("condition retyped true", bar, field, setter(field, True))

    print("| case | bar | mutation | old script | new script |")
    print("| --- | --- | --- | --- | --- |")
    for row in rows:
        print("| " + " | ".join(str(c) for c in row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
