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

2. ranked-mutexes — every mutex member in src/serve, src/net and
   src/runtime is a RankedMutex (runtime/lock_rank.hpp), whose LockRank
   enum states the lock order once and whose lock()/try_lock() check it
   at run time. A bare std::mutex member there would escape that check.
   runtime/lock_rank.hpp itself wraps the one std::mutex it may hold.
   Exempt by location: core/search.cpp's io_mutex, a print lock in the
   training layer that takes no serving lock.

3. entry-point-checks — the runtime's throwing entry points must keep
   their guard: compile()/quantize() run verify_or_throw on every plan
   they produce, plan_arena self-checks its assignment, and the
   executors PIT_CHECK their call contracts before touching the arena.

4. one-training-step — every training batch in src/ runs through
   core::train_epoch (core/trainer.cpp), the one zero-grad -> forward ->
   loss -> backward -> update step behind PIT's three phases, plain
   training and the ProxylessNAS weight pass. A `.backward()` call
   anywhere else in src/ is a second copy of that step, which drifts from
   the first. Exempt: tensor/gradcheck.cpp, which differentiates a
   function against finite differences and trains nothing.

Usage::

    check_invariants.py [repo_root]    # default: script's parent repo
    check_invariants.py --self-test    # prove the scanners catch bare
                                       # mutexes, kernel-layer state and
                                       # stray backward calls (negative
                                       # tests)

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


# ---- rule 2: every serving-stack mutex carries a lock rank ---------------

BARE_MUTEX = re.compile(r"^\s*(?:mutable\s+)?std::mutex\s+\w+\s*[;{]")
RANKED_DIRS = ("src/serve", "src/net", "src/runtime")
RANK_HEADER = "src/runtime/lock_rank.hpp"


def scan_bare_mutex(text, relname, violations):
    for lineno, line in enumerate(text.splitlines(), 1):
        if BARE_MUTEX.search(line.split("//")[0]):
            violations.append(
                f"{relname}:{lineno}: ranked-mutexes: bare std::mutex "
                f"member — make it a RankedMutex with a LockRank "
                f"({RANK_HEADER}): {line.strip()}")


def check_ranked_mutexes(root, violations):
    for rel in RANKED_DIRS:
        for path in sorted((root / rel).glob("*.[ch]pp")):
            relname = path.relative_to(root)
            if relname.as_posix() != RANK_HEADER:
                scan_bare_mutex(path.read_text(), relname, violations)


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


# ---- rule 4: one training step ---------------------------------------------

BACKWARD_CALL = re.compile(r"\.backward\s*\(")
TRAINING_STEP_FILES = ("src/core/trainer.cpp", "src/tensor/gradcheck.cpp")


def scan_backward_calls(text, relname, violations):
    for lineno, line in enumerate(text.splitlines(), 1):
        if BACKWARD_CALL.search(line.split("//")[0]):
            violations.append(
                f"{relname}:{lineno}: one-training-step: backward() outside "
                f"core::train_epoch — run the batch through the shared step "
                f"(src/core/trainer.hpp): {line.strip()}")


def check_one_training_step(root, violations):
    for path in sorted((root / "src").rglob("*.[ch]pp")):
        relname = path.relative_to(root)
        if relname.as_posix() not in TRAINING_STEP_FILES:
            scan_backward_calls(path.read_text(), relname, violations)


# ---- self-test: prove the scanners actually catch bugs ---------------------

# (name, snippet, expected number of violations) for the bare-mutex rule:
# a plain mutex member is flagged; ranked members and guards over them
# pass.
BARE_MUTEX_CASES = [
    ("bare mutex members are flagged", """
  std::mutex mutex_;
  mutable std::mutex registry_mutex_;  // map, memo
""", 2),
    ("ranked mutexes and their guards pass", """
  mutable runtime::RankedMutex<runtime::LockRank::kShard> mutex;
  std::lock_guard lock(shard.mutex);
  std::unique_lock<std::mutex> lock(m);
""", 0),
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


# (name, snippet, expected number of violations) for the training-step
# rule: a hand-written batch loop's backward call is flagged; the autograd
# engine's node dispatch, backward kernels and comments pass.
BACKWARD_CALL_CASES = [
    ("a batch loop outside the shared step is flagged", """
    model_.zero_grad();
    Tensor objective = loss_(model_.forward(batch.inputs), batch.targets);
    objective.backward();
    weight_opt.step();
""", 1),
    ("autograd dispatch, backward kernels and comments pass", """
    impl->grad_fn->backward(*impl);
    blocked.backward_input(dy.data(), w.data(), dx.data(), d);
    // objective.backward() runs inside core::train_epoch
""", 0),
]


def self_test():
    failures = 0
    cases = ([(n, t, e, scan_bare_mutex) for n, t, e in BARE_MUTEX_CASES] +
             [(n, t, e, scan_kernel_state) for n, t, e in KERNEL_STATE_CASES] +
             [(n, t, e, scan_backward_calls)
              for n, t, e in BACKWARD_CALL_CASES])
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
    check_ranked_mutexes(root, violations)
    check_entry_points(root, violations)
    check_one_training_step(root, violations)
    for v in violations:
        print(f"FAIL  {v}")
    if violations:
        print(f"\ncheck_invariants: {len(violations)} violation(s)")
        return 1
    print("check_invariants: OK (kernel state, ranked mutexes, "
          "entry-point checks, one training step)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
