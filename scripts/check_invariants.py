#!/usr/bin/env python3
"""Source-level invariant gate (companion to runtime/verify.hpp).

The plan verifier proves the compiled-plan IR's memory model at plan-build
time; this script pins the source-level conventions that the verifier and
the executors assume but no compiler enforces:

1. kernels-no-mutable-state — src/nn/kernels/ holds pure compute kernels
   plus an immutable, bind-once registry. Mutable namespace-scope or
   static state there would break the "bound kernels are direct calls
   with no hidden coupling" contract (and the thread-safety story that
   lets one plan serve many threads). Detected: non-const `static`
   declarations, `thread_local`, and namespace-scope `g_*` variables.
   There are no exemptions: kernel selection lives entirely in the
   immutable registry.

2. serve-lock-order — src/serve, src/net, and the plan registry their
   sessions pin versions through acquire their mutexes in one global
   order (lifecycle_mutex_ -> tick_mutex_ -> shard.mutex -> mutex_ ->
   pool_mutex_ -> slot->mutex -> cache_mutex -> entry->swap_mutex ->
   registry_mutex_ -> completions_mutex). shard.mutex is one
   SessionManager registry stripe; stripes share a rank, so holding two
   shard mutexes at once is itself a violation of the design (every
   sweep locks one shard at a time) — the scanner flags same-rank
   nesting for it. cache_mutex is the session allocator's per-shard
   cache lock; it ranks after slot->mutex because context growth during
   a step allocates while the slot is locked, and it takes nothing
   itself. The registry ranks strictly after serve because an
   InflightTicket release may run under a slot mutex; registry methods
   never take serve locks. The front end brackets the order:
   lifecycle_mutex_ (FrontEnd start/stop serialization) ranks first —
   stop() joins the event loop, which may take any serve lock — and
   completions_mutex (the SUBMIT completion queue) ranks last because
   it is a strict leaf: a server worker takes it holding no serve lock,
   and nothing is ever acquired under it. A nested acquisition that
   goes DOWN that order is a lock-inversion deadlock waiting for the
   right interleaving. Tracked per function body with brace-scope
   guard lifetimes.

3. entry-point-checks — the runtime's throwing entry points must keep
   their guard: compile()/quantize() run verify_or_throw on every plan
   they produce, plan_arena self-checks its assignment, and the
   executors PIT_CHECK their call contracts before touching the arena.

Usage::

    check_invariants.py [repo_root]    # default: script's parent repo
    check_invariants.py --self-test    # prove the scanners catch lock
                                       # inversions and kernel-layer
                                       # state (negative tests)

Exit 1 with a per-violation report when any rule is broken.
"""
import pathlib
import re
import sys

# ---- rule 1: no mutable state in the kernel layer --------------------------

STATIC_MUTABLE = re.compile(r"^\s*(?:inline\s+)?static\s+(?!const\b|constexpr\b)")
THREAD_LOCAL = re.compile(r"\bthread_local\b")
# A declaration line: optional qualifiers and a type, then the g_ name,
# then an initializer or `;` — anchored so mere *uses* (loop bounds, call
# arguments) never match.
GLOBAL_VAR = re.compile(r"^[\w\s:<>,*&]*\bg_(\w+)\s*[={;]")
CONST_DECL = re.compile(r"\b(?:const|constexpr)\b")
# `static Ret name(...)` is a member-function declaration, not state.
FUNCTION_DECL = re.compile(r"\w\s*\(")


def scan_kernel_state(text, relname, violations):
    for lineno, line in enumerate(text.splitlines(), 1):
        code = line.split("//")[0]
        flagged = None
        if THREAD_LOCAL.search(code):
            flagged = "thread_local state"
        elif (STATIC_MUTABLE.search(code)
              and CONST_DECL.search(code) is None
              and FUNCTION_DECL.search(code) is None):
            flagged = "non-const static"
        else:
            m = GLOBAL_VAR.search(code)
            if m and CONST_DECL.search(code) is None:
                flagged = f"namespace-scope variable 'g_{m.group(1)}'"
        if flagged:
            violations.append(
                f"{relname}:{lineno}: kernels-no-mutable-state: {flagged} "
                f"in the kernel layer: {line.strip()}")


def check_kernel_state(root, violations):
    for path in sorted((root / "src" / "nn" / "kernels").glob("*.[ch]pp")):
        scan_kernel_state(path.read_text(), path.relative_to(root),
                          violations)


# ---- rule 2: serve lock order ----------------------------------------------

LOCK_DECL = re.compile(
    r"std::(?:lock_guard|unique_lock|scoped_lock)<[^>]*>\s+\w+\(([^)]*)\)")

LOCK_RANKS = [
    # FrontEnd start()/stop() serialization. First in the order because
    # stop() joins the event loop thread, which can take any serve lock
    # — so nothing below may ever be held when lifecycle is taken.
    (re.compile(r"\blifecycle_mutex_\b"), 0, "lifecycle_mutex_"),
    (re.compile(r"\btick_mutex_\b"), 1, "tick_mutex_"),
    # A SessionManager registry stripe. Ordered before the generic
    # slot->mutex pattern (first match wins) and before the tick pool:
    # step_tick resolves per shard under tick_mutex_, then hands off.
    (re.compile(r"\bshard(?:->|\.)mutex\b"), 2, "shard.mutex"),
    (re.compile(r"(?<![\w.>])mutex_\b"), 3, "mutex_"),
    (re.compile(r"\bpool_mutex_\b"), 4, "pool_mutex_"),
    # Matched before the generic slot pattern: "completions_mutex" via a
    # member access would otherwise be unreachable (it never is today —
    # the queue is always named — but first-match order should not care).
    (re.compile(r"\bcompletions_mutex\b"), 9, "completions_mutex"),
    (re.compile(r"(?:->|\.)mutex\b"), 5, "slot->mutex"),
    # SessionAllocator's per-shard cache lock: taken during allocation,
    # which can happen under a slot mutex mid-step; takes nothing itself.
    (re.compile(r"\bcache_mutex\b"), 6, "cache_mutex"),
    # PlanRegistry locks rank after every serve lock: a ticket release can
    # run under a slot mutex, and the registry never calls back into serve.
    (re.compile(r"(?:->|\.)swap_mutex\b"), 7, "entry->swap_mutex"),
    (re.compile(r"\bregistry_mutex_\b"), 8, "registry_mutex_"),
    # The front end's completion queue (rank 9, declared above for
    # first-match order): a strict leaf — InferenceServer workers take it
    # holding no server lock, the event loop takes it holding nothing,
    # and no code acquires anything under it.
]

LOCK_ORDER_DOC = ("lifecycle_mutex_ -> tick_mutex_ -> shard.mutex -> "
                  "mutex_ -> pool_mutex_ -> slot->mutex -> cache_mutex "
                  "-> entry->swap_mutex -> registry_mutex_ -> "
                  "completions_mutex")

# Ranks where holding two instances at once deadlocks against a peer
# doing the same in the opposite order (there is one mutex PER SHARD, so
# the rank alone cannot order two of them).
SAME_RANK_FORBIDDEN = {2}


def lock_rank(expr):
    for pattern, rank, name in LOCK_RANKS:
        if pattern.search(expr):
            return rank, name
    return None, expr.strip()


def brace_delta(code):
    return code.count("{") - code.count("}")


def scan_lock_order(text, relname, violations):
    depth = 0
    held = []  # (decl_depth, rank, name, lineno) of live guards
    for lineno, line in enumerate(text.splitlines(), 1):
        code = line.split("//")[0]
        m = LOCK_DECL.search(code)
        if m:
            rank, name = lock_rank(m.group(1))
            if rank is not None:
                for _, held_rank, held_name, held_line in held:
                    if held_rank > rank or (held_rank == rank and
                                            rank in SAME_RANK_FORBIDDEN):
                        violations.append(
                            f"{relname}:{lineno}: "
                            f"serve-lock-order: acquires {name} (rank "
                            f"{rank}) while holding {held_name} (rank "
                            f"{held_rank}, line {held_line}) — order "
                            f"is {LOCK_ORDER_DOC}; two shard mutexes "
                            f"must never be held at once")
                held.append((depth, rank, name, lineno))
            else:
                violations.append(
                    f"{relname}:{lineno}: "
                    f"serve-lock-order: unknown mutex '{name}' — add "
                    f"it to the lock order in check_invariants.py")
        depth += brace_delta(code)
        held = [g for g in held if g[0] <= depth]


def check_serve_lock_order(root, violations):
    paths = sorted((root / "src" / "serve").glob("*.[ch]pp"))
    paths.extend(sorted((root / "src" / "net").glob("*.[ch]pp")))
    paths.append(root / "src" / "runtime" / "plan_registry.cpp")
    for path in paths:
        scan_lock_order(path.read_text(), str(path.relative_to(root)),
                        violations)


# ---- rule 3: entry points keep their checks --------------------------------

# (file, function signature fragment, required marker)
ENTRY_POINTS = [
    # The batched and step executors are templates over the element type:
    # one guarded definition covers the fp32 and the u8 program.
    ("src/runtime/executor_batched.cpp", "Tensor CompiledPlan::run_batched",
     "PIT_CHECK"),
    ("src/runtime/executor_step.cpp", "void CompiledPlan::run_step",
     "PIT_CHECK"),
    ("src/runtime/plan_builder.cpp", "NetBuilder::compile",
     "verify_or_throw"),
    ("src/runtime/quant_lowering.cpp", "QuantizedCompiler::quantize",
     "verify_or_throw"),
    ("src/runtime/arena.cpp", "ArenaPlan plan_arena", "check_arena_plan"),
]


def function_body(text, signature):
    start = text.find(signature)
    if start < 0:
        return None
    brace = text.find("{", start)
    if brace < 0:
        return None
    depth = 0
    for i in range(brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[brace:i + 1]
    return None


def check_entry_points(root, violations):
    for rel, signature, marker in ENTRY_POINTS:
        path = root / rel
        if not path.is_file():
            violations.append(f"{rel}: entry-point-checks: file not found "
                              f"(update check_invariants.py)")
            continue
        body = function_body(path.read_text(), signature)
        if body is None:
            violations.append(
                f"{rel}: entry-point-checks: function '{signature}' not "
                f"found (update check_invariants.py)")
        elif marker not in body:
            violations.append(
                f"{rel}: entry-point-checks: '{signature}' no longer "
                f"contains {marker} — the entry-point guard was removed")


# ---- self-test: prove the scanners actually catch bugs ---------------------

# (name, snippet, expected number of violations). The snippets are the
# exact inversions the rule exists to catch; a scanner change that stops
# flagging them fails CI before a real inversion can slip through.
SELF_TEST_CASES = [
    ("correct nesting passes", """
void ok() {
  std::lock_guard<std::mutex> tick(tick_mutex_);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::lock_guard<std::mutex> slot_lock(slot->mutex);
  }
  std::lock_guard<std::mutex> pool(pool_mutex_);
}
""", 0),
    ("scoped release is not a nesting", """
void ok() {
  for (auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
  }
  std::lock_guard<std::mutex> tick(tick_mutex_);
}
""", 0),
    ("slot before shard is an inversion", """
void bad() {
  std::lock_guard<std::mutex> slot_lock(slot->mutex);
  std::lock_guard<std::mutex> lock(shard.mutex);
}
""", 1),
    ("cache before slot is an inversion", """
void bad() {
  std::lock_guard<std::mutex> lock(cache_mutex);
  std::lock_guard<std::mutex> slot_lock(slot->mutex);
}
""", 1),
    ("two shard mutexes at once deadlock", """
void bad() {
  std::lock_guard<std::mutex> a(shard.mutex);
  std::lock_guard<std::mutex> b(shard.mutex);
}
""", 1),
    ("registry lock under a serve lock is fine, reverse is not", """
void bad() {
  std::lock_guard<std::mutex> reg(registry_mutex_);
  std::lock_guard<std::mutex> lock(shard.mutex);
}
""", 1),
    ("unknown mutex is flagged", """
void bad() {
  std::lock_guard<std::mutex> lock(mystery_mutex_);
}
""", 1),
    ("completion queue lock under a serve lock is fine", """
void ok() {
  std::lock_guard<std::mutex> slot_lock(slot->mutex);
  std::lock_guard<std::mutex> lock(cq->completions_mutex);
}
""", 0),
    ("completions_mutex is a leaf: nothing nests under it", """
void bad() {
  std::lock_guard<std::mutex> lock(cq->completions_mutex);
  std::lock_guard<std::mutex> slot_lock(slot->mutex);
}
""", 1),
    ("serve locks never nest under the front-end lifecycle reversal", """
void bad() {
  std::lock_guard<std::mutex> tick(tick_mutex_);
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
}
""", 1),
]


# (name, snippet, expected number of violations) for the kernel-state
# scanner: the mutable state it must flag — the shape of the old per-call
# backend override, a `g_` global — and the immutable forms the kernel
# layer legitimately uses, which must pass.
KERNEL_STATE_CASES = [
    ("mutable kernel-layer state is flagged", """
namespace {
int g_engine = 0;
static int calls = 0;
thread_local float scratch[64];
}  // namespace
void set_engine(int e) { g_engine = e; }
""", 3),
    ("immutable state and plain uses pass", """
namespace {
constexpr index_t kBlockedMinMacs = 16384;
const char* const g_names[] = {"base", "v3"};
}  // namespace
const Registry& Registry::instance() {
  static const Registry reg;
  return reg;
}
static KernelFootprint exact_footprint();
index_t twice(index_t g_count) { return g_count * 2; }
""", 0),
]


def self_test():
    failures = 0
    cases = ([(n, t, e, scan_lock_order) for n, t, e in SELF_TEST_CASES] +
             [(n, t, e, scan_kernel_state) for n, t, e in KERNEL_STATE_CASES])
    for name, snippet, expected, scan in cases:
        violations = []
        scan(snippet, "<self-test>", violations)
        status = "ok" if len(violations) == expected else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{status:4}  {name}: expected {expected} violation(s), "
              f"got {len(violations)}")
        if status == "FAIL":
            for v in violations:
                print(f"      {v}")
    if failures:
        print(f"\ncheck_invariants --self-test: {failures} case(s) failed")
        return 1
    print(f"check_invariants --self-test: OK ({len(cases)} cases)")
    return 0


def main(argv):
    if len(argv) > 1 and argv[1] == "--self-test":
        return self_test()
    root = pathlib.Path(argv[1]) if len(argv) > 1 else \
        pathlib.Path(__file__).resolve().parent.parent
    violations = []
    check_kernel_state(root, violations)
    check_serve_lock_order(root, violations)
    check_entry_points(root, violations)
    for v in violations:
        print(f"FAIL  {v}")
    if violations:
        print(f"\ncheck_invariants: {len(violations)} violation(s)")
        return 1
    print("check_invariants: OK (kernel state, serve lock order, "
          "entry-point checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
