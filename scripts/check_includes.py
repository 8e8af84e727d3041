#!/usr/bin/env python3
"""Include-hygiene check for the executor split.

The per-executor translation units (src/runtime/executor_*.cpp) run ops
exclusively through the function pointers bound on the plan at build time
(nn/kernels/registry.hpp). If one of them starts including a raw kernel
entry-point header or calling the per-call dispatch layer, plan-time
binding silently degrades back to per-call resolution — exactly what the
registry refactor removed. This check makes that regression loud:

  - every src/runtime/executor_*.cpp must include
    "nn/kernels/registry.hpp" (the only sanctioned kernel surface);
  - none of them may reference nn/kernels/kernels.hpp, the per-ISA impl
    TUs (blocked_impl / quant_impl), or the dispatch layer;
  - none of them may name a per-call kernel entry point: the autograd
    conv_forward / conv_backward_* (which look the kernel up on every
    call), or the per-call inference wrappers the registry replaced
    (conv_forward_packed, linear_forward, and the *_i8 family), so those
    cannot come back as a second selection path.

Exits non-zero listing every violation.
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

REQUIRED_INCLUDE = '#include "nn/kernels/registry.hpp"'
BANNED = (
    "nn/kernels/kernels.hpp",
    "blocked_impl",
    "quant_impl",
    "dispatch",
)
# Per-call entry points, matched as whole identifiers.
BANNED_CALLS = re.compile(
    r"\b(conv_forward|conv_backward_input|conv_backward_weight|"
    r"conv_forward_packed|linear_forward|conv_forward_packed_i8|"
    r"linear_forward_i8|add_forward_i8|quantize_interleave_i8|"
    r"conv_step_i8)\b")


def main() -> int:
    executors = sorted((ROOT / "src" / "runtime").glob("executor_*.cpp"))
    errors = []
    if not executors:
        errors.append("no src/runtime/executor_*.cpp found — the executor "
                      "split this check guards is gone")
    for cpp in executors:
        rel = cpp.relative_to(ROOT)
        text = cpp.read_text(encoding="utf-8")
        if REQUIRED_INCLUDE not in text:
            errors.append(f"{rel}: missing {REQUIRED_INCLUDE} — executors "
                          f"consume kernels only through the registry")
        for needle in BANNED:
            for lineno, line in enumerate(text.splitlines(), start=1):
                if needle in line:
                    errors.append(
                        f"{rel}:{lineno}: references '{needle}' — executors "
                        f"must use the kernel pointers bound on the plan, "
                        f"not raw impls or per-call dispatch")
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = BANNED_CALLS.search(line)
            if match:
                errors.append(
                    f"{rel}:{lineno}: names the per-call kernel entry point "
                    f"'{match.group(1)}' — executors run only the kernels "
                    f"bound on the plan")
    for err in errors:
        print(err)
    checked = ", ".join(str(p.relative_to(ROOT)) for p in executors)
    if errors:
        print(f"\ncheck_includes: {len(errors)} violation(s) in {checked}")
        return 1
    print(f"check_includes: OK ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
