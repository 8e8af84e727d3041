// AddressSanitizer shadow-memory helpers shared by every layer that keeps
// freed memory for reuse: the training-step buffer recycler
// (tensor/tensor.cpp), the session allocator (serve/) and the plan
// executors' arena hardening (runtime/hardening.hpp). Memory that sits in a
// cache is poisoned, so a stale pointer into it trips an ASan report
// instead of reading the next tenant's data. Outside an ASan build every
// call compiles to nothing.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define PIT_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PIT_ASAN 1
#endif
#endif
#ifndef PIT_ASAN
#define PIT_ASAN 0
#endif

#if PIT_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace pit::asan {

inline constexpr bool kEnabled = PIT_ASAN != 0;

inline void poison(const void* p, std::size_t bytes) {
#if PIT_ASAN
  __asan_poison_memory_region(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

inline void unpoison(const void* p, std::size_t bytes) {
#if PIT_ASAN
  __asan_unpoison_memory_region(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace pit::asan
