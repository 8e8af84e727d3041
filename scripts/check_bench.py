#!/usr/bin/env python3
"""Benchmark regression gate.

Loads every ``BENCH_*.json`` found in the given directories (or files),
validates each against its schema (documented in docs/BENCHMARKS.md), and
fails the run when a tracked speedup bar is missed — so the 2-3x wins the
engine benches record cannot silently rot.

Usage::

    check_bench.py [dir_or_file ...]      # default: current directory

Bars and their hardware conditions (see docs/BENCHMARKS.md "CI gates"):

  BENCH_kernels.json  best stride-1 forward, backward_input
                      and backward_weight speedups >= 2.0   (always)
                      best specialized-variant speedup
                      >= 1.03                                (fp32 SIMD, not
                                                             the base ISA)
  BENCH_runtime.json  worst_batched_temponet_speedup >= 2.0 (always)
  BENCH_serve.json    batched_over_single_speedup >= 2.0    (>= 4 hw threads)
  BENCH_quant.json    worst_batched_temponet_int8_speedup
                      >= 1.5                                 (vnni kernels)
                      gap8_macs_all_match == true            (always)
  BENCH_stream.json   int8_over_fp32_stream_speedup >= 1.5   (vnni kernels)
                      tick_over_unbatched_speedup >= 2.0     (>= 4 hw threads)
  BENCH_registry.json stream_fleet.dedup_ratio >= 1.5        (always)
                      memoized_recompile_speedup >= 10.0     (always)
  BENCH_sessions.json sharded_over_single_speedup >= 2.0     (>= 4 hw threads)
                      evictions == 0 at >= 100k resident     (always)
                      BENCH_sessions also requires a resident
                      row at >= 100k sessions
  BENCH_frontend.json overload goodput_over_capacity >= 0.70 (>= 4 hw threads)
                      shed_probe shed_p99_ms <= 250.0        (probe shed > 0)
                      overload/stream/shed_probe errors == 0 (always)
                      stream steps > 0                       (always)

A bar whose hardware condition is not met is SKIPPED (reported, not
failed): the portable int8 fallback has no 4x MAC-density edge and a
single-core runner has no parallel win to measure. An unknown
``BENCH_*.json`` is an error — teach this script (and BENCHMARKS.md) its
schema before shipping a new bench writer.
"""
import json
import pathlib
import sys

MIN_PARALLEL_THREADS = 4  # parallel bars need a multi-core host


class Gate:
    """Collects per-file schema errors, bar failures, and skips."""

    def __init__(self):
        self.errors = []
        self.passed = []
        self.skipped = []

    def fail(self, msg):
        self.errors.append(msg)

    def ok(self, msg):
        self.passed.append(msg)

    def skip(self, msg):
        self.skipped.append(msg)


def require(gate, name, data, field, kind):
    if field not in data:
        gate.fail(f"{name}: missing field '{field}'")
        return None
    value = data[field]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        gate.fail(f"{name}: field '{field}' is {type(value).__name__}, "
                  f"expected {kind.__name__}")
        return None
    return value


def require_rows(gate, name, data, key, row_fields):
    rows = require(gate, name, data, key, list)
    if rows is None:
        return []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            gate.fail(f"{name}: {key}[{i}] is not an object")
            return []
        for field, kind in row_fields.items():
            require(gate, f"{name}: {key}[{i}]", row, field, kind)
    return rows


def bar(gate, name, label, value, minimum, condition=True, why=""):
    if value is None:
        return
    if not condition:
        gate.skip(f"{name}: {label} = {value:.2f} (bar >= {minimum}) "
                  f"SKIPPED: {why}")
        return
    if value >= minimum:
        gate.ok(f"{name}: {label} = {value:.2f} >= {minimum}")
    else:
        gate.fail(f"{name}: {label} = {value:.2f} MISSES the bar "
                  f">= {minimum}")


def check_kernels(gate, name, data):
    if require(gate, name, data, "bench", str) != "kernels_backend_compare":
        gate.fail(f"{name}: bench != 'kernels_backend_compare'")
    require(gate, name, data, "threads", int)
    fp32_isa = require(gate, name, data, "fp32_isa", str)
    require(gate, name, data, "i8_isa", str)
    rows = require_rows(gate, name, data, "results", {
        "shape": str, "kernel": str, "macs": int,
        "scalar_ms": float, "blocked_ms": float, "speedup": float,
    })
    # Every training kernel must keep its blocked win on the stride-1 rows
    # (the search hot path; shape names end in "_s<stride>").
    for kernel in ("forward", "backward_input", "backward_weight"):
        speedups = [r["speedup"] for r in rows
                    if isinstance(r, dict) and r.get("kernel") == kernel
                    and str(r.get("shape", "")).endswith("_s1")
                    and isinstance(r.get("speedup"), (int, float))]
        if not speedups:
            gate.fail(f"{name}: no stride-1 {kernel} rows")
            return
        bar(gate, name, f"best stride-1 blocked-over-scalar {kernel} speedup",
            max(speedups), 2.0)
    spec_rows = require_rows(gate, name, data, "specialized", {
        "shape": str, "dtype": str, "k": int, "c_in": int, "c_out": int,
        "t": int, "generic_ms": float, "specialized_ms": float,
        "speedup": float, "kernel": str,
    })
    # Rows whose signature fell back to generic (kernel "<isa>/generic")
    # measure the fallback's zero cost, not a specialization win.
    matched = [r["speedup"] for r in spec_rows
               if isinstance(r, dict) and isinstance(r.get("kernel"), str)
               and not r["kernel"].endswith("/generic")
               and isinstance(r.get("speedup"), (int, float))]
    if not matched:
        gate.fail(f"{name}: no specialized (non-fallback) rows")
        return
    bar(gate, name, "best specialized-over-generic speedup",
        max(matched), 1.03,
        condition=fp32_isa is not None and fp32_isa != "base",
        why=f"fp32 ISA level '{fp32_isa}' — no SIMD kernels to "
            f"specialize on this hardware")


def check_runtime(gate, name, data):
    require(gate, name, data, "max_threads", int)
    require_rows(gate, name, data, "results", {
        "model": str, "batch": int, "threads": int,
        "module_ms": float, "compiled_ms": float, "speedup": float,
    })
    bar(gate, name, "worst_batched_temponet_speedup",
        require(gate, name, data, "worst_batched_temponet_speedup", float),
        2.0)
    # Static plan verification must stay a plan-build-time cost: <= 10% on
    # top of an unverified compile, and (by construction — it never runs on
    # the forward path) 0% in steady state, which the speedup bar above
    # already watches.
    build = require(gate, name, data, "plan_build_ms", float)
    noverify = require(gate, name, data, "plan_build_noverify_ms", float)
    frac = require(gate, name, data, "verify_overhead_frac", float)
    if frac is not None:
        if frac <= 0.10:
            gate.ok(f"{name}: verify_overhead_frac = {frac:.3f} <= 0.10")
        else:
            gate.fail(f"{name}: verify_overhead_frac = {frac:.3f} EXCEEDS "
                      f"0.10 (plan build {build} ms verified vs {noverify} "
                      f"ms unverified)")


def check_serve(gate, name, data):
    threads = require(gate, name, data, "hardware_threads", int)
    require(gate, name, data, "pool_threads", int)
    require(gate, name, data, "requests_per_policy", int)
    require_rows(gate, name, data, "results", {
        "policy": str, "threads": int, "max_batch": int, "clients": int,
        "throughput_rps": float, "p50_ms": float, "p99_ms": float,
        "mean_batch": float,
    })
    bar(gate, name, "batched_over_single_speedup",
        require(gate, name, data, "batched_over_single_speedup", float),
        2.0,
        condition=threads is not None and threads >= MIN_PARALLEL_THREADS,
        why=f"{threads} hardware threads < {MIN_PARALLEL_THREADS}")


def check_quant(gate, name, data):
    variant = require(gate, name, data, "i8_kernel_variant", str)
    require(gate, name, data, "max_threads", int)
    macs_match = require(gate, name, data, "gap8_macs_all_match", bool)
    if macs_match is False:
        gate.fail(f"{name}: gap8_macs_all_match is false")
    require_rows(gate, name, data, "results", {
        "model": str, "batch": int, "threads": int,
        "fp32_ms": float, "int8_ms": float, "speedup": float,
    })
    require_rows(gate, name, data, "layers", {
        "model": str, "op": int, "desc": str,
        "max_abs_err": float, "mean_abs_err": float, "bound": float,
    })
    bar(gate, name, "worst_batched_temponet_int8_speedup",
        require(gate, name, data,
                "worst_batched_temponet_int8_speedup", float),
        1.5, condition=variant == "vnni",
        why=f"i8 kernel variant '{variant}' has no VNNI dot product")


def check_stream(gate, name, data):
    threads = require(gate, name, data, "hardware_threads", int)
    require(gate, name, data, "session_shards", int)
    variant = require(gate, name, data, "i8_kernel_variant", str)
    require(gate, name, data, "model", str)
    rows = require_rows(gate, name, data, "results", {
        "dtype": str, "mode": str, "sessions": int,
        "steps_per_sec": float, "p50_us": float, "p99_us": float,
    })
    modes = {r.get("mode") for r in rows if isinstance(r, dict)}
    for needed in ("single", "unbatched", "tick"):
        if needed not in modes:
            gate.fail(f"{name}: no '{needed}' rows")
    bar(gate, name, "int8_over_fp32_stream_speedup",
        require(gate, name, data, "int8_over_fp32_stream_speedup", float),
        1.5, condition=variant == "vnni",
        why=f"i8 kernel variant '{variant}' has no VNNI dot product")
    bar(gate, name, "tick_over_unbatched_speedup",
        require(gate, name, data, "tick_over_unbatched_speedup", float),
        2.0,
        condition=threads is not None and threads >= MIN_PARALLEL_THREADS,
        why=f"{threads} hardware threads < {MIN_PARALLEL_THREADS}")


def check_registry(gate, name, data):
    require(gate, name, data, "models", int)
    require(gate, name, data, "versions_per_model", int)
    # The dedup bar: a 3-version fleet one retrained layer apart must
    # share the physical bytes of every unchanged layer.
    fleet = require(gate, name, data, "stream_fleet", dict)
    dedup = None
    if fleet is not None:
        require(gate, f"{name}: stream_fleet", fleet, "logical_bytes", int)
        require(gate, f"{name}: stream_fleet", fleet, "resident_bytes", int)
        dedup = require(gate, f"{name}: stream_fleet", fleet,
                        "dedup_ratio", float)
    require(gate, name, data, "fleet", dict)
    bar(gate, name, "stream_fleet dedup_ratio", dedup, 1.5)
    # Re-registering an identical version must answer from the
    # (fingerprint, shape class) memo, not recompile.
    bar(gate, name, "memoized_recompile_speedup",
        require(gate, name, data, "memoized_recompile_speedup", float),
        10.0)
    # Hot-swap latency under load is tracked (trajectory), not gated: it
    # measures the drain of whatever traffic the runner happened to have
    # in flight, so its absolute value is not a stable bar.
    require(gate, name, data, "swaps", int)
    require(gate, name, data, "swap_p50_ms", float)
    require(gate, name, data, "swap_p99_ms", float)
    traffic = require(gate, name, data, "traffic", dict)
    if traffic is not None:
        for field in ("fp32_steps", "int8_steps", "window_requests"):
            require(gate, f"{name}: traffic", traffic, field, int)
    stats = require(gate, name, data, "registry", dict)
    if stats is not None:
        for field in ("compiles", "compile_hits", "lowerings",
                      "lowering_hits", "swaps", "leases"):
            require(gate, f"{name}: registry", stats, field, int)
        require(gate, f"{name}: registry", stats, "pool_dedup_ratio", float)


def check_sessions(gate, name, data):
    threads = require(gate, name, data, "hardware_threads", int)
    require(gate, name, data, "shards_auto", int)
    require(gate, name, data, "contention_threads", int)
    require(gate, name, data, "single_shard_steps_per_sec", float)
    require(gate, name, data, "sharded_steps_per_sec", float)
    rows = require_rows(gate, name, data, "resident", {
        "resident": int, "open_per_sec": float, "open_p999_us": float,
        "step_per_sec": float, "step_p999_us": float,
        "close_per_sec": float, "close_p999_us": float, "evictions": int,
    })
    # The scaling bar: striped registry + per-shard allocator must beat
    # the single-shard (old global mutex) configuration under churn.
    bar(gate, name, "sharded_over_single_speedup",
        require(gate, name, data, "sharded_over_single_speedup", float),
        2.0,
        condition=threads is not None and threads >= MIN_PARALLEL_THREADS,
        why=f"{threads} hardware threads < {MIN_PARALLEL_THREADS}")
    # The thrash bar: a resident fleet within max_sessions, stepped at
    # steady state, must never trip eviction — any nonzero count means
    # open/step churn is recycling live sessions.
    big = [r for r in rows if isinstance(r, dict)
           and isinstance(r.get("resident"), int)
           and r["resident"] >= 100000]
    if not big:
        gate.fail(f"{name}: no resident row at >= 100k sessions")
    for r in big:
        ev = r.get("evictions")
        if isinstance(ev, int) and ev == 0:
            gate.ok(f"{name}: {r['resident']} resident stepped with "
                    f"0 evictions")
        elif isinstance(ev, int):
            gate.fail(f"{name}: {r['resident']} resident saw {ev} "
                      f"evictions during stepping — eviction thrash")


def check_frontend(gate, name, data):
    if require(gate, name, data, "bench", str) != "frontend":
        gate.fail(f"{name}: bench != 'frontend'")
    threads = require(gate, name, data, "hw_threads", int)
    require(gate, name, data, "mode", str)
    capacity = require(gate, name, data, "capacity", dict)
    if capacity is not None:
        require(gate, f"{name}: capacity", capacity, "completed", int)
        for field in ("rps", "p50_ms", "p99_ms", "p999_ms"):
            require(gate, f"{name}: capacity", capacity, field, float)
    overload = require(gate, name, data, "overload", dict)
    goodput = None
    if overload is not None:
        for field in ("offered", "completed", "shed", "errors"):
            require(gate, f"{name}: overload", overload, field, int)
        for field in ("goodput_rps", "p50_ms", "p99_ms", "p999_ms"):
            require(gate, f"{name}: overload", overload, field, float)
        goodput = require(gate, f"{name}: overload", overload,
                          "goodput_over_capacity", float)
    # The overload bar: at 2x the measured capacity, admission control
    # must keep goodput near capacity (shedding the excess fast) instead
    # of collapsing into queueing. Meaningless when the load generator
    # and the server share one core — the client cannot offer 2x.
    bar(gate, name, "overload goodput_over_capacity", goodput, 0.70,
        condition=threads is not None and threads >= MIN_PARALLEL_THREADS,
        why=f"{threads} hardware threads < {MIN_PARALLEL_THREADS} — "
            f"loadgen and server share cores, overload is not real")
    probe = require(gate, name, data, "shed_probe", dict)
    if probe is not None:
        require(gate, f"{name}: shed_probe", probe, "burst", int)
        require(gate, f"{name}: shed_probe", probe, "admitted", int)
        shed = require(gate, f"{name}: shed_probe", probe, "shed", int)
        require(gate, f"{name}: shed_probe", probe, "errors", int)
        p99 = require(gate, f"{name}: shed_probe", probe, "shed_p99_ms",
                      float)
        # Sheds must be fast rejects, not timeouts: a RETRY_AFTER answer
        # to a burst past the budget has to come back in milliseconds.
        if shed is not None and p99 is not None:
            if shed == 0:
                gate.skip(f"{name}: shed_probe shed_p99_ms SKIPPED: the "
                          f"burst never exceeded the admission budget")
            elif p99 <= 250.0:
                gate.ok(f"{name}: shed_probe shed_p99_ms = {p99:.2f} "
                        f"<= 250.0 ({shed} fast-rejects)")
            else:
                gate.fail(f"{name}: shed_probe shed_p99_ms = {p99:.2f} "
                          f"EXCEEDS 250.0 — sheds are timing out, not "
                          f"fast-rejecting")
    stream = require(gate, name, data, "stream", dict)
    if stream is not None:
        steps = require(gate, f"{name}: stream", stream, "steps", int)
        require(gate, f"{name}: stream", stream, "errors", int)
        for field in ("p50_ms", "p99_ms", "p999_ms"):
            require(gate, f"{name}: stream", stream, field, float)
        if steps is not None and steps <= 0:
            gate.fail(f"{name}: stream ran no steps")
    # Any protocol/transport error during the run is a failure outright;
    # sheds are the only acceptable non-answer.
    for section, d in (("overload", overload), ("shed_probe", probe),
                       ("stream", stream)):
        if d is not None and isinstance(d.get("errors"), int) \
                and d["errors"] > 0:
            gate.fail(f"{name}: {section} recorded {d['errors']} "
                      f"error(s) — only RETRY_AFTER sheds are acceptable")


CHECKERS = {
    "BENCH_kernels.json": check_kernels,
    "BENCH_runtime.json": check_runtime,
    "BENCH_serve.json": check_serve,
    "BENCH_quant.json": check_quant,
    "BENCH_stream.json": check_stream,
    "BENCH_registry.json": check_registry,
    "BENCH_sessions.json": check_sessions,
    "BENCH_frontend.json": check_frontend,
}


def main(argv):
    roots = [pathlib.Path(a) for a in argv[1:]] or [pathlib.Path(".")]
    files = []
    for root in roots:
        if root.is_dir():
            files.extend(sorted(root.glob("BENCH_*.json")))
        else:
            files.append(root)
    gate = Gate()
    if not files:
        gate.fail(f"no BENCH_*.json found under: "
                  f"{', '.join(str(r) for r in roots)}")
    for path in files:
        name = path.name
        checker = CHECKERS.get(name)
        if checker is None:
            gate.fail(f"{name}: unknown benchmark file — add its schema to "
                      f"scripts/check_bench.py and docs/BENCHMARKS.md")
            continue
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as err:
            gate.fail(f"{name}: unreadable ({err})")
            continue
        checker(gate, name, data)

    for msg in gate.passed:
        print(f"PASS  {msg}")
    for msg in gate.skipped:
        print(f"SKIP  {msg}")
    for msg in gate.errors:
        print(f"FAIL  {msg}")
    total = len(files)
    if gate.errors:
        print(f"\ncheck_bench: {len(gate.errors)} failure(s) across "
              f"{total} file(s)")
        return 1
    print(f"\ncheck_bench: OK ({total} file(s), {len(gate.passed)} bar(s) "
          f"held, {len(gate.skipped)} skipped)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
