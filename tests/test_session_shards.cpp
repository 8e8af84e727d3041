// Sharded SessionManager: model-checked concurrency. Eight threads drive
// seeded, deterministic schedules of open/step/tick/close (plus chaos
// evict_idle sweeps) against one manager; every output is recorded and
// then replayed single-threaded against StreamSession reference models —
// the fleet must be bit-identical to the model no matter how the
// interleaving fell. Also pinned here: id = seq<<bits | shard encoding,
// ids never reused, per-shard stats sum to the global snapshot, and the
// evict-vs-step race on one slot (the last_step memory-order contract)
// is TSan-clean.
//
// PIT_SOAK=1 additionally runs the 100k-session churn hammer with an
// allocator-leak check (wired into the ASan/TSan CI jobs).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "models/restcn.hpp"
#include "runtime/compile_models.hpp"
#include "serve/session_manager.hpp"
#include "serve/stream_session.hpp"
#include "tensor/error.hpp"

namespace pit::serve {
namespace {

using runtime::CompiledPlan;

std::shared_ptr<const CompiledPlan> small_plan(std::uint64_t seed) {
  RandomEngine rng(seed);
  models::ResTcnConfig cfg;
  cfg.input_channels = 4;
  cfg.output_channels = 4;
  cfg.hidden_channels = 8;
  models::ResTCN model(
      cfg, models::dilated_conv_factory(rng, {1, 2, 4, 8}), rng);
  model.eval();
  return runtime::compile_plan(model, 16);
}

/// Deterministic per-(sequence, step) input vector: the schedule replay
/// regenerates exactly these inputs.
void fill_input(std::uint64_t sequence, std::uint64_t t, float* out,
                index_t c) {
  for (index_t i = 0; i < c; ++i) {
    out[i] = std::sin(0.1F * static_cast<float>(t + 1) *
                      static_cast<float>(i + 1)) +
             0.01F * static_cast<float>(sequence % 23);
  }
}

std::uint64_t next_rand(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 33;
}

TEST(SessionShards, IdsEncodeHomeShardAndStayUnique) {
  const auto plan = small_plan(301);
  SessionManagerOptions options;
  options.shards = 8;
  options.max_sessions = 512;
  SessionManager manager(plan, options);
  ASSERT_EQ(manager.num_shards(), 8u);
  std::set<SessionManager::SessionId> seen;
  std::vector<SessionManager::SessionId> live;
  // Churn through several open/close generations: every id must be brand
  // new (never recycled with its slot) and resolve to a shard in range.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 64; ++i) {
      const auto id = manager.open();
      EXPECT_LT(manager.shard_of(id), manager.num_shards());
      EXPECT_TRUE(seen.insert(id).second) << "id " << id << " was reused";
      live.push_back(id);
    }
    for (const auto id : live) {
      manager.close(id);
    }
    live.clear();
  }
  EXPECT_EQ(seen.size(), 6u * 64u);
  EXPECT_EQ(manager.stats().opened, 6u * 64u);
  // Sessions landed across shards, not all on one (round-robin cursor).
  std::size_t populated = 0;
  for (std::size_t s = 0; s < manager.num_shards(); ++s) {
    populated += manager.shard_stats(s).opened > 0 ? 1 : 0;
  }
  EXPECT_GT(populated, 1u);
}

TEST(SessionShards, PerShardStatsSumToGlobalSnapshot) {
  const auto plan = small_plan(307);
  SessionManagerOptions options;
  options.shards = 4;
  options.max_sessions = 64;
  options.idle_timeout = std::chrono::milliseconds(1);
  SessionManager manager(plan, options);
  float in[4];
  float out[4];
  std::vector<SessionManager::SessionId> ids;
  for (int i = 0; i < 48; ++i) {
    ids.push_back(manager.open());
  }
  for (int t = 0; t < 5; ++t) {
    for (std::size_t s = 0; s < ids.size(); ++s) {
      fill_input(s, static_cast<std::uint64_t>(t), in, 4);
      manager.step(ids[s], in, out);
    }
  }
  for (std::size_t s = 0; s < 16; ++s) {
    manager.close(ids[s]);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  manager.evict_idle(std::chrono::milliseconds(1));
  const SessionManagerStats global = manager.stats();
  SessionManagerStats sum;
  for (std::size_t s = 0; s < manager.num_shards(); ++s) {
    const SessionManagerStats shard = manager.shard_stats(s);
    EXPECT_EQ(shard.ticks, 0u);  // ticks are global-only by contract
    sum.opened += shard.opened;
    sum.closed += shard.closed;
    sum.evicted += shard.evicted;
    sum.recycled += shard.recycled;
    sum.steps += shard.steps;
    sum.active += shard.active;
    sum.pooled += shard.pooled;
  }
  EXPECT_EQ(sum.opened, global.opened);
  EXPECT_EQ(sum.closed, global.closed);
  EXPECT_EQ(sum.evicted, global.evicted);
  EXPECT_EQ(sum.recycled, global.recycled);
  EXPECT_EQ(sum.steps, global.steps);
  EXPECT_EQ(sum.active, global.active);
  EXPECT_EQ(sum.pooled, global.pooled);
  EXPECT_EQ(global.opened, 48u);
  EXPECT_EQ(global.closed, 16u);
  EXPECT_EQ(global.evicted, 32u);  // the sweep caught everything left
  EXPECT_EQ(global.steps, 48u * 5u);
}

TEST(SessionShards, CompactIdleKeepsSequencesBitIdentical) {
  const auto plan = small_plan(311);
  SessionManagerOptions options;
  options.shards = 4;
  SessionManager manager(plan, options);
  StreamSession mirror(plan);
  const auto id = manager.open();
  float in[4];
  float got[4];
  float want[4];
  for (std::uint64_t t = 0; t < 30; ++t) {
    if (t == 15) {
      // A mid-sequence trim must be invisible to the outputs: only pooled
      // slots and cached blocks are released, never a live ring history.
      manager.trim(0);
    }
    fill_input(9, t, in, 4);
    manager.step(id, in, got);
    mirror.step(in, want);
    for (int c = 0; c < 4; ++c) {
      ASSERT_EQ(got[c], want[c]) << "step " << t << ", channel " << c;
    }
  }
}

// One schedule entry: how many sequences this thread ran and how long
// each was, with every output recorded for the replay.
struct SequenceLog {
  std::uint64_t key = 0;  ///< fill_input sequence key
  std::vector<float> outputs;
};

/// The model-checked hammer: each thread executes a seeded schedule of
/// open/step/tick/close on ITS OWN sessions (one driver per session, per
/// the API contract) while chaos sweeps (evict_idle with an hours-long
/// deadline) from every thread rake the shared shards.
/// Nothing in the schedule depends on the interleaving, so the replay
/// below must reproduce every recorded output bit-for-bit.
TEST(SessionShardsConcurrency, ModelCheckedInterleavingsMatchReference) {
  const auto plan = small_plan(313);
  SessionManagerOptions options;
  options.shards = 8;
  options.max_sessions = 256;
  options.tick_threads = 2;
  SessionManager manager(plan, options);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 160;
  std::vector<std::vector<SequenceLog>> logs(kThreads);
  std::mutex ids_mutex;
  std::set<SessionManager::SessionId> all_ids;
  std::atomic<int> id_reuses{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      std::uint64_t state = 0x9E3779B97F4A7C15ULL * (tid + 1);
      struct Live {
        SessionManager::SessionId id;
        std::size_t log_index;
        std::uint64_t t = 0;
      };
      std::vector<Live> live;
      std::uint64_t opened = 0;
      float in[3 * 4];
      float out[3 * 4];
      const auto open_one = [&] {
        const auto id = manager.open();
        {
          std::lock_guard<std::mutex> lock(ids_mutex);
          if (!all_ids.insert(id).second) {
            ++id_reuses;
          }
        }
        SequenceLog log;
        log.key = static_cast<std::uint64_t>(tid) * 1000 + opened++;
        logs[tid].push_back(log);
        live.push_back({id, logs[tid].size() - 1, 0});
      };
      for (int op = 0; op < kOpsPerThread; ++op) {
        const std::uint64_t roll = next_rand(state) % 100;
        if (live.empty() || (roll < 25 && live.size() < 6)) {
          open_one();
        } else if (roll < 80) {
          // Step one session, or tick up to 3 of this thread's sessions
          // in one call — each advances its own sequence position.
          const std::size_t count =
              std::min<std::size_t>(1 + next_rand(state) % 3, live.size());
          std::vector<SessionManager::SessionId> ids;
          for (std::size_t i = 0; i < count; ++i) {
            Live& s = live[i];
            fill_input(logs[tid][s.log_index].key, s.t, in + i * 4, 4);
            ids.push_back(s.id);
          }
          if (count == 1) {
            manager.step(ids[0], in, out);
          } else {
            manager.step_tick(ids.data(), count, in, out);
          }
          for (std::size_t i = 0; i < count; ++i) {
            Live& s = live[i];
            logs[tid][s.log_index].outputs.insert(
                logs[tid][s.log_index].outputs.end(), out + i * 4,
                out + i * 4 + 4);
            ++s.t;
          }
        } else if (roll < 90) {
          const std::size_t victim = next_rand(state) % live.size();
          manager.close(live[victim].id);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        } else {
          // Chaos sweep: the deadline is hours away, so it must evict
          // nothing — it exists to interleave the sweep's locking with
          // everyone's steps.
          manager.evict_idle(std::chrono::hours(1));
        }
      }
      for (const Live& s : live) {
        manager.close(s.id);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(id_reuses.load(), 0) << "a SessionId was handed out twice";
  // Single-threaded replay: every sequence, fed the same inputs, must
  // reproduce the concurrent run's outputs bit-for-bit.
  for (int tid = 0; tid < kThreads; ++tid) {
    for (const SequenceLog& log : logs[tid]) {
      StreamSession reference(plan);
      const std::size_t steps = log.outputs.size() / 4;
      float in[4];
      float want[4];
      for (std::uint64_t t = 0; t < steps; ++t) {
        fill_input(log.key, t, in, 4);
        reference.step(in, want);
        for (std::size_t c = 0; c < 4; ++c) {
          ASSERT_EQ(log.outputs[t * 4 + c], want[c])
              << "thread " << tid << ", sequence " << log.key << ", step "
              << t << ", channel " << c
              << ": concurrent run diverged from the reference model";
        }
      }
    }
  }
  const SessionManagerStats stats = manager.stats();
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.opened, stats.closed);
  EXPECT_EQ(stats.evicted, 0u);  // chaos sweeps had nothing to claim
}

/// Regression for the last_step contract: eviction scans pre-filter on a
/// relaxed read but must re-validate under the slot mutex. Racing a
/// stepper against an aggressive evictor on the same slots is exactly
/// the interleaving that used to be a data race (TSan) and, without the
/// re-read, an eviction of a session that just stepped.
TEST(SessionShardsConcurrency, EvictVsStepRacingOnOneSlotIsCoherent) {
  const auto plan = small_plan(317);
  SessionManagerOptions options;
  options.shards = 2;
  options.max_sessions = 8;
  options.idle_timeout = std::chrono::milliseconds(2);
  SessionManager manager(plan, options);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> evictor_passes{0};
  std::thread evictor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      manager.evict_idle(std::chrono::milliseconds(2));
      evictor_passes.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });
  float in[4];
  float out[4];
  std::uint64_t stepped = 0;
  std::uint64_t evicted_mid_sequence = 0;
  for (int round = 0; round < 60; ++round) {
    const auto id = manager.open();
    std::uint64_t t = 0;
    try {
      for (; t < 25; ++t) {
        fill_input(11, t, in, 4);
        manager.step(id, in, out);
        ++stepped;
        if (t % 8 == 7) {
          // Go idle long enough to become evictable mid-sequence.
          std::this_thread::sleep_for(std::chrono::milliseconds(3));
        }
      }
      manager.close(id);
    } catch (const Error&) {
      // Evicted between steps — legal; the id must now be stale
      // everywhere, not half-alive.
      ++evicted_mid_sequence;
      EXPECT_FALSE(manager.alive(id));
      EXPECT_THROW(manager.step(id, in, out), Error);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  evictor.join();
  EXPECT_GT(stepped, 0u);
  EXPECT_GT(evictor_passes.load(), 0u);
  // Conservation: every open ended exactly one way.
  const SessionManagerStats stats = manager.stats();
  EXPECT_EQ(stats.opened, 60u);
  EXPECT_EQ(stats.opened, stats.closed + stats.evicted + stats.active);
}

/// The CI soak hammer (PIT_SOAK=1): 100k session churn through a bounded
/// resident set across 4 threads, then a full drain — allocator stats
/// must return to the empty baseline (no leaked or stranded blocks).
TEST(SessionShardsSoak, HundredThousandSessionChurnLeavesNoResidue) {
  if (std::getenv("PIT_SOAK") == nullptr) {
    GTEST_SKIP() << "set PIT_SOAK=1 to run the 100k-session soak";
  }
  const auto plan = small_plan(331);
  SessionManagerOptions options;
  options.shards = 8;
  options.max_sessions = 8192;
  options.idle_timeout = std::chrono::milliseconds(1);
  options.tick_threads = 2;
  options.max_cached_bytes_per_shard = 1 << 20;
  SessionManager manager(plan, options);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOpensPerThread = 25000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      std::uint64_t state = 0x9E3779B97F4A7C15ULL * (tid + 7);
      float in[4];
      float out[4];
      for (std::uint64_t n = 0; n < kOpensPerThread; ++n) {
        const auto id = manager.open();
        const std::uint64_t steps = 1 + next_rand(state) % 4;
        try {
          for (std::uint64_t t = 0; t < steps; ++t) {
            fill_input(id, t, in, 4);
            manager.step(id, in, out);
          }
          // One in eight sessions is abandoned for the idle sweeps
          // (open() under pressure and the periodic evictor below) to
          // reclaim; the rest close politely.
          if (next_rand(state) % 8 != 0) {
            manager.close(id);
          }
        } catch (const Error&) {
          // evicted under pressure mid-sequence — expected churn
        }
        if (n % 256 == 0) {
          manager.evict_idle(std::chrono::milliseconds(1));
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const SessionManagerStats churned = manager.stats();
  EXPECT_EQ(churned.opened, kThreads * kOpensPerThread);
  EXPECT_EQ(churned.opened,
            churned.closed + churned.evicted + churned.active);
  // Drain: evict everything, release pooled buffers and caches; the
  // allocator must be back at its empty baseline — anything left is a
  // leak the cache was hiding.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  manager.evict_idle(std::chrono::milliseconds(0));
  manager.trim(0);
  const SessionAllocatorStats alloc = manager.allocator_stats();
  EXPECT_EQ(alloc.live_bytes, 0u) << "leaked session buffers";
  EXPECT_EQ(alloc.live_blocks, 0u);
  EXPECT_EQ(alloc.cached_bytes, 0u) << "trim(0) left cached blocks";
  EXPECT_EQ(alloc.cached_blocks, 0u);
  EXPECT_GT(alloc.cache_hits, 0u) << "churn never hit the cache";
  EXPECT_EQ(manager.stats().active, 0u);
}

}  // namespace
}  // namespace pit::serve
