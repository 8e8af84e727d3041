#include "runtime/hardening.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tensor/error.hpp"

namespace pit::runtime::hardening {

namespace {

Mode clamp(Mode m) {
  if (m == Mode::kPoison && !kAsanBuild) {
    return Mode::kCanary;
  }
  return m;
}

Mode resolve_from_env() {
  const char* env = std::getenv("PIT_VERIFY");
  if (env != nullptr) {
    const std::string v(env);
    if (v == "off" || v == "0" || v == "none") {
      return Mode::kOff;
    }
    if (v == "canary") {
      return Mode::kCanary;
    }
    if (v == "poison" || v == "address") {
      return clamp(Mode::kPoison);
    }
    PIT_CHECK(false, "PIT_VERIFY: unknown mode '"
                         << v << "' (accepted: off, canary, poison)");
  }
  // No override: ASan builds harden by default, plain builds stay free.
  return kAsanBuild ? Mode::kPoison : Mode::kOff;
}

std::atomic<Mode>& mode_slot() {
  static std::atomic<Mode> slot{resolve_from_env()};
  return slot;
}

}  // namespace

Mode mode() { return mode_slot().load(std::memory_order_relaxed); }

Mode set_mode_for_test(Mode m) {
  return mode_slot().exchange(clamp(m), std::memory_order_relaxed);
}

void fill_canary(void* p, std::size_t bytes) {
  std::memset(p, kCanaryByte, bytes);
}

bool check_canary(const void* p, std::size_t bytes) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  for (std::size_t i = 0; i < bytes; ++i) {
    if (b[i] != kCanaryByte) {
      return false;
    }
  }
  return true;
}

void raise_canary_failure(const char* where, int op, int value, long long lo,
                          long long hi) {
  PIT_CHECK(false, where << ": canary clobbered — a kernel wrote outside "
                            "its declared footprint at op #"
                         << op << ", value v" << value << ", element range ["
                         << lo << ", " << hi
                         << ") (PIT_VERIFY=canary enforcement; rebuild with "
                            "PIT_SANITIZE=address for the faulting frame)");
}

}  // namespace pit::runtime::hardening
