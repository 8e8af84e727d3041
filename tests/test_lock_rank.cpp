// LockRank: the run-time lock-order check (runtime/lock_rank.hpp). Every
// inversion must abort and name both locks — directly, through a helper
// function, through the serving API, through a bare try_lock() and through
// a condition-variable wait — and the held-rank mask must stay exact across
// try_lock failures and waits.
#include "runtime/lock_rank.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "models/restcn.hpp"
#include "runtime/compile_models.hpp"
#include "serve/session_manager.hpp"

namespace pit::runtime {
namespace {

template <LockRank R>
constexpr std::uint32_t bit() {
  return 1U << static_cast<unsigned>(R);
}

using Lifecycle = RankedMutex<LockRank::kLifecycle>;
using Tick = RankedMutex<LockRank::kTick>;
using Shard = RankedMutex<LockRank::kShard>;
using Pool = RankedMutex<LockRank::kPool>;
using Slot = RankedMutex<LockRank::kSlot>;
using Cache = RankedMutex<LockRank::kCache>;
using Registry = RankedMutex<LockRank::kRegistry>;
using Completions = RankedMutex<LockRank::kCompletions>;

TEST(LockRank, InOrderNestingPasses) {
  Tick tick;
  Shard shard;
  Slot slot;
  Cache cache;
  Pool pool;
  {
    std::lock_guard t(tick);
    {
      std::lock_guard s(shard);
      std::lock_guard l(slot);
      std::lock_guard c(cache);
      EXPECT_EQ(held_lock_ranks(),
                bit<LockRank::kTick>() | bit<LockRank::kShard>() |
                    bit<LockRank::kSlot>() | bit<LockRank::kCache>());
    }
    // A released lock no longer counts: pool ranks below slot and cache.
    std::lock_guard p(pool);
    EXPECT_EQ(held_lock_ranks(),
              bit<LockRank::kTick>() | bit<LockRank::kPool>());
  }
  EXPECT_EQ(held_lock_ranks(), 0U);
}

TEST(LockRank, SlotThenShardDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Slot slot;
  Shard shard;
  EXPECT_DEATH(
      {
        std::lock_guard l(slot);
        std::lock_guard s(shard);
      },
      "acquiring SessionManager shard.mutex .*while holding SessionManager "
      "slot->mutex");
}

TEST(LockRank, CacheThenSlotDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Cache cache;
  Slot slot;
  EXPECT_DEATH(
      {
        std::lock_guard c(cache);
        std::lock_guard l(slot);
      },
      "acquiring SessionManager slot->mutex .*while holding "
      "SessionAllocator cache_mutex");
}

TEST(LockRank, TwoShardStripesDie) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Shard a;
  Shard b;
  EXPECT_DEATH(
      {
        std::lock_guard la(a);
        std::lock_guard lb(b);
      },
      "acquiring SessionManager shard.mutex .*while holding SessionManager "
      "shard.mutex");
}

TEST(LockRank, RegistryThenShardDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Registry reg;
  Shard shard;
  EXPECT_DEATH(
      {
        std::lock_guard r(reg);
        std::lock_guard s(shard);
      },
      "acquiring SessionManager shard.mutex .*while holding "
      "PlanRegistry::registry_mutex_");
}

TEST(LockRank, LockUnderCompletionsDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Completions cq;
  Slot slot;
  EXPECT_DEATH(
      {
        std::lock_guard c(cq);
        std::lock_guard l(slot);
      },
      "acquiring SessionManager slot->mutex .*while holding FrontEnd "
      "completions_mutex");
}

TEST(LockRank, TickThenLifecycleDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Tick tick;
  Lifecycle lifecycle;
  EXPECT_DEATH(
      {
        std::lock_guard t(tick);
        std::lock_guard l(lifecycle);
      },
      "acquiring FrontEnd::lifecycle_mutex_ .*while holding "
      "SessionManager::tick_mutex_");
}

// The chain a per-function scanner cannot see: take A, call f, f takes B.
void touch_shard(Shard& shard) { std::lock_guard s(shard); }

TEST(LockRank, InversionThroughHelperDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Slot slot;
  Shard shard;
  EXPECT_DEATH(
      {
        std::lock_guard l(slot);
        touch_shard(shard);
      },
      "acquiring SessionManager shard.mutex .*while holding SessionManager "
      "slot->mutex");
}

TEST(LockRank, InversionThroughServingApiDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  RandomEngine rng(7);
  models::ResTcnConfig cfg;
  cfg.input_channels = 2;
  cfg.output_channels = 2;
  cfg.hidden_channels = 4;
  models::ResTCN model(
      cfg, models::dilated_conv_factory(rng, {1, 1, 2, 2, 4, 4, 8, 8}), rng);
  model.eval();
  serve::SessionManager manager(compile_plan(model, 8));
  const serve::SessionManager::SessionId id = manager.open();
  Cache cache;
  // step() takes the session's shard and slot: both rank before the
  // allocator cache this thread already holds.
  EXPECT_DEATH(
      {
        std::lock_guard c(cache);
        manager.step(id, Tensor::zeros(Shape{2}));
      },
      "acquiring SessionManager shard.mutex .*while holding "
      "SessionAllocator cache_mutex");
}

TEST(LockRank, InversionThroughTryLockDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Completions cq;
  Slot slot;
  EXPECT_DEATH(
      {
        std::lock_guard c(cq);
        if (slot.try_lock()) {
          slot.unlock();
        }
      },
      "acquiring SessionManager slot->mutex .*while holding FrontEnd "
      "completions_mutex");
}

TEST(LockRank, FailedTryLockLeavesMaskUnchanged) {
  Slot slot;
  std::mutex gate;
  std::condition_variable cv;
  bool held = false;
  bool release = false;
  std::thread owner([&] {
    std::lock_guard l(slot);
    std::unique_lock g(gate);
    held = true;
    cv.notify_all();
    cv.wait(g, [&] { return release; });
  });
  {
    std::unique_lock g(gate);
    cv.wait(g, [&] { return held; });
  }
  EXPECT_FALSE(slot.try_lock());
  EXPECT_EQ(held_lock_ranks(), 0U);
  // A failed try_lock left no slot bit behind, so a lower rank is legal.
  Shard shard;
  {
    std::lock_guard s(shard);
    EXPECT_EQ(held_lock_ranks(), bit<LockRank::kShard>());
  }
  {
    std::lock_guard g(gate);
    release = true;
  }
  cv.notify_all();
  owner.join();
  EXPECT_TRUE(slot.try_lock());
  EXPECT_EQ(held_lock_ranks(), bit<LockRank::kSlot>());
  slot.unlock();
  EXPECT_EQ(held_lock_ranks(), 0U);
}

TEST(LockRank, ConditionWaitKeepsMask) {
  Tick tick;
  Pool pool;
  std::condition_variable cv;
  bool ready = false;
  std::lock_guard t(tick);
  std::thread notifier;
  {
    std::lock_guard p(pool);
    // The notifier can take pool only once the wait has released it.
    notifier = std::thread([&] {
      {
        std::lock_guard q(pool);
        ready = true;
      }
      cv.notify_all();
    });
    pool.wait(cv, [&] { return ready; });
    EXPECT_EQ(held_lock_ranks(),
              bit<LockRank::kTick>() | bit<LockRank::kPool>());
  }
  notifier.join();
  EXPECT_EQ(held_lock_ranks(), bit<LockRank::kTick>());
}

TEST(LockRank, WaitUnderHigherRankDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Pool pool;
  Cache cache;
  std::condition_variable cv;
  // Waiting on pool while holding cache would retake pool under cache.
  EXPECT_DEATH(
      {
        std::lock_guard p(pool);
        std::lock_guard c(cache);
        pool.wait(cv, [] { return true; });
      },
      "acquiring SessionManager::pool_mutex_ .*while holding "
      "SessionAllocator cache_mutex");
}

}  // namespace
}  // namespace pit::runtime
