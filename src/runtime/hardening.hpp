// Dynamic enforcement of the plan-verifier memory model (runtime/verify.hpp)
// over the execution arenas.
//
// The static pass proves at plan-build time that every kernel's declared
// footprint stays inside its operands' planned regions. This layer makes a
// violation of that declaration — a kernel writing bytes it never declared
// — a hard, attributable failure at run time instead of silent corruption:
//
//   kPoison  (ASan builds) the executors poison the entire per-forward
//            arena extent, then unpoison exactly each op's declared
//            operand regions before invoking its kernel. The per-row tail
//            slack of an op's OUTPUT stays poisoned (kernels declare it
//            read-only for inputs, never written), so an out-of-footprint
//            store trips an AddressSanitizer report carrying the faulting
//            kernel frame. Dead arena regions stay poisoned throughout.
//            ASan shadow granularity is 8 bytes, so the first partial
//            granule of a slack region is conservatively unpoisoned —
//            enforcement starts two floats into the slack.
//
//   kCanary  (any build) a cheaper model for non-ASan binaries: the
//            executors fill each op's output-row slack with a canary
//            pattern before the kernel runs and verify it afterwards, and
//            keep a canary-filled tail pad past the arena's planned end.
//            A corrupted canary throws pit::Error naming the op and value.
//
// Mode resolution (once, at first use): ASan builds default to kPoison;
// PIT_VERIFY=canary selects kCanary anywhere; PIT_VERIFY=off disables.
// Non-ASan builds clamp kPoison to kCanary. Off costs one predictable
// branch per op — nothing on the kernel hot paths themselves.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/asan.hpp"
#include "tensor/shape.hpp"

namespace pit::runtime::hardening {

inline constexpr bool kAsanBuild = asan::kEnabled;

enum class Mode : std::uint8_t { kOff, kCanary, kPoison };

/// The resolved hardening mode (see header comment for the resolution
/// order). Cached after the first call; safe from any thread.
Mode mode();

/// Overrides the resolved mode (tests/benches). kPoison without ASan
/// clamps to kCanary. Returns the previously effective mode.
Mode set_mode_for_test(Mode m);

/// Canary tail floats appended past the fp32 arena's planned extent in
/// kCanary mode (bytes for the u8 arena use the same count * 4).
inline constexpr index_t kArenaTailPadFloats = 16;

/// The canary byte pattern (0xAB per byte; as a float a tiny denormal-free
/// negative value no kernel produces by accident).
inline constexpr std::uint8_t kCanaryByte = 0xAB;

// ---- raw shadow-memory / canary primitives --------------------------------
// The executors compose these with their own layout knowledge; outside an
// ASan build the poison calls compile to nothing (tensor/asan.hpp).

using asan::poison;
using asan::unpoison;

/// Unpoisons `rows` rows of `stride` elements each, keeping the trailing
/// `keep_tail` elements of every row poisoned (the output-slack rule).
/// keep_tail == 0 unpoisons the whole block in one call.
template <typename T>
void unpoison_rows(T* base, index_t rows, index_t stride, index_t keep_tail) {
  if (keep_tail == 0) {
    unpoison(base, static_cast<std::size_t>(rows * stride) * sizeof(T));
    return;
  }
  const index_t keep = stride - keep_tail;
  for (index_t r = 0; r < rows; ++r) {
    unpoison(base + r * stride, static_cast<std::size_t>(keep) * sizeof(T));
  }
}

void fill_canary(void* p, std::size_t bytes);
/// True when every byte of [p, p+bytes) still holds the canary pattern.
bool check_canary(const void* p, std::size_t bytes);

/// Throws pit::Error naming the op/value whose canary region was
/// clobbered (called by the executors when check_canary fails).
[[noreturn]] void raise_canary_failure(const char* where, int op, int value,
                                       long long lo, long long hi);

/// RAII: unpoisons [p, p + bytes) on destruction, so the arena vector is
/// never left poisoned across forwards (vector growth, destruction, and
/// the next forward's memset-style writes must all see clean shadow).
class UnpoisonOnExit {
 public:
  UnpoisonOnExit(const void* p, std::size_t bytes) : p_(p), bytes_(bytes) {}
  UnpoisonOnExit(const UnpoisonOnExit&) = delete;
  UnpoisonOnExit& operator=(const UnpoisonOnExit&) = delete;
  ~UnpoisonOnExit() { unpoison(p_, bytes_); }

 private:
  const void* p_;
  std::size_t bytes_;
};

}  // namespace pit::runtime::hardening
