// The lock order of the serving stack, stated once and checked on every
// acquisition.
//
// Every mutex in src/runtime, src/serve and src/net is a RankedMutex with
// a LockRank. A thread_local bitmask holds the ranks the thread holds, and
// lock()/try_lock() enforce one rule: rank R may be acquired only while no
// rank >= R is held. A violation aborts, naming both locks, before the
// acquisition can block — on the first run that takes the inverted order,
// whether or not another thread ever takes the opposite one (which TSan's
// cycle detector needs). Two locks of one rank never nest, so at most one
// SessionManager shard stripe is held at a time.
//
// The check is on in every build type. core/search.cpp's io_mutex stays a
// std::mutex: a print lock in the training layer.
#pragma once

#include <bit>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <mutex>

namespace pit::runtime {

/// The global lock order, first to last.
enum class LockRank : std::uint8_t {
  /// FrontEnd::lifecycle_mutex_ (start()/stop()). First because stop()
  /// joins the event loop thread, which can take any serve lock: nothing
  /// may be held when lifecycle is taken.
  kLifecycle,
  /// SessionManager::tick_mutex_: one step_tick at a time. A tick resolves
  /// its sessions shard by shard, then hands them to the pool.
  kTick,
  /// SessionManager shard.mutex, one registry stripe.
  kShard,
  /// InferenceServer::mutex_: the request queue and its counters.
  kServer,
  /// SessionManager::pool_mutex_: step_tick job handoff and completion.
  kPool,
  /// SessionManager slot->mutex: serializes one session's context.
  kSlot,
  /// SessionAllocator cache_mutex, one per shard. After slot because a
  /// context grows, and so allocates, while its slot is locked during a
  /// step; it takes nothing itself.
  kCache,
  /// PlanRegistry entry->swap_mutex: serializes swap_active per model.
  /// The registry's locks rank after every serve lock, so serve code may
  /// acquire or release a lease or ticket while holding its own locks;
  /// registry methods never call back into serve.
  kSwap,
  /// PlanRegistry::registry_mutex_: map, memo, stats, version lists.
  kRegistry,
  /// FrontEnd completions_mutex, the SUBMIT completion queue. A strict
  /// leaf: server workers take it holding no server lock, the event loop
  /// takes it holding nothing, and nothing is acquired under it.
  kCompletions,
  /// WeightPool::pool_lock_: content-hash interning during compile and
  /// lowering, which run outside every other lock. A leaf.
  kWeightPool,
};

namespace lock_rank_detail {

inline constexpr const char* kNames[] = {
    "FrontEnd::lifecycle_mutex_",   "SessionManager::tick_mutex_",
    "SessionManager shard.mutex",   "InferenceServer::mutex_",
    "SessionManager::pool_mutex_",  "SessionManager slot->mutex",
    "SessionAllocator cache_mutex", "PlanRegistry entry->swap_mutex",
    "PlanRegistry::registry_mutex_", "FrontEnd completions_mutex",
    "WeightPool::pool_lock_",
};
static_assert(std::size(kNames) ==
              static_cast<std::size_t>(LockRank::kWeightPool) + 1);

/// Bit r is set while the thread holds a lock of LockRank r.
inline thread_local std::uint32_t held = 0;

[[noreturn, gnu::cold, gnu::noinline]] inline void violation(
    LockRank acquiring) {
  // The highest held rank is >= the one being acquired: it is the lock
  // whose order this acquisition breaks.
  const auto want = static_cast<unsigned>(acquiring);
  const auto top = static_cast<unsigned>(31 - std::countl_zero(held));
  std::fprintf(stderr,
               "lock-rank violation: acquiring %s (rank %u) while holding "
               "%s (rank %u); the order is LockRank in "
               "runtime/lock_rank.hpp\n",
               kNames[want], want, kNames[top], top);
  std::abort();
}

}  // namespace lock_rank_detail

/// A std::mutex that takes part in the rank check (Lockable, so
/// lock_guard and unique_lock work; wait() takes a condition variable).
template <LockRank R>
class RankedMutex {
 public:
  void lock() {
    check();
    mutex_.lock();
    lock_rank_detail::held |= kBit;
  }

  bool try_lock() {
    check();
    if (!mutex_.try_lock()) {
      return false;
    }
    lock_rank_detail::held |= kBit;
    return true;
  }

  void unlock() {
    lock_rank_detail::held &= ~kBit;
    mutex_.unlock();
  }

  /// Blocks on `cv` until pred() holds; the caller holds this mutex
  /// through a guard. The wait's retake of the mutex is checked up front:
  /// no rank above R may be held. (std::condition_variable_any would
  /// check it on the retake, at the cost of a second mutex per wake-up.)
  template <typename Pred>
  void wait(std::condition_variable& cv, Pred pred) {
    if ((lock_rank_detail::held & ~(kBit | (kBit - 1))) != 0) {
      lock_rank_detail::violation(R);
    }
    while (!pred()) {
      std::unique_lock<std::mutex> inner(mutex_, std::adopt_lock);
      cv.wait(inner);
      inner.release();
    }
  }

 private:
  static constexpr std::uint32_t kBit = 1U << static_cast<unsigned>(R);

  static void check() {
    // kBit - 1 is every rank below R; any other held bit is >= R.
    if ((lock_rank_detail::held & ~(kBit - 1)) != 0) {
      lock_rank_detail::violation(R);
    }
  }

  std::mutex mutex_;
};

/// The ranks the calling thread holds, bit r for LockRank r.
inline std::uint32_t held_lock_ranks() { return lock_rank_detail::held; }

}  // namespace pit::runtime
