// Fleet-scale streaming serving: toward a million concurrent streaming
// sessions over one registry-managed model (fp32 or int8). The manager
// holds a runtime::PlanHandle; each open() pins the version active at
// that moment, so a hot swap (PlanRegistry::swap_active) moves newly
// opened sessions to the new version while live sessions finish their
// sequences bit-identically on the version they started with. Every
// step takes a lock-free in-flight ticket, which is what lets the swap
// wait out mid-step work without stalling the steady state.
//
// A StreamSession (stream_session.hpp) is one sequence bound to one
// private ExecutionContext — perfect for a single sensor, useless for a
// fleet. SessionManager is the fleet: pooled, recycled session slots
// (each an ExecutionContext whose ring buffers are reset on reuse, so a
// recycled session is bit-identical to a fresh one), opaque SessionIds,
// and three access patterns:
//
//   step      — advance one session by one time step (the low-latency
//               path; same per-step work as StreamSession),
//   step_tick — advance MANY sessions that received a sample in the same
//               tick: one call, one pass over a persistent worker pool,
//               amortizing dispatch and spreading the per-session conv
//               work across cores.
//   evict     — sessions idle past a deadline are evictable; open()
//               recycles the stalest evictable slot when the manager is
//               full, so abandoned sequences cannot pin memory forever.
//
// SHARDING. The registry is striped over a power-of-two number of shards
// (options.shards; default = hardware concurrency). Each shard owns its
// own mutex, id -> slot map, slot storage, and free list; a SessionId
// encodes its home shard in the low bits (id = seq << shard_bits |
// shard), so every lookup goes straight to one shard and never scans or
// serializes against the rest of the fleet. step_tick resolves its batch
// grouped by shard (each shard locked once per tick) and idle eviction
// is a shard-local sweep — no global lock is ever held across a step.
// Global limits (max_sessions) and counters are atomics summed over
// shards, never a bottleneck lock.
//
// MEMORY. Session buffers come from a per-shard size-bucketed caching
// allocator (session_allocator.hpp) through the ExecutionContext pmr
// seam: open/close churn recycles ring and scratch blocks inside the
// shard instead of hitting the global heap, recycled blocks are
// zero-reset (bit-identical to fresh), and cached blocks are
// ASan-poisoned. A session only ever steps, so it holds its ring
// buffers and step vectors and nothing else; trim() releases pooled
// slots' buffers and shrinks the caches toward a target.
//
// THREAD SAFETY. All public methods are thread-safe. Each session must be
// driven by one caller at a time (its sequence order is meaningless
// otherwise); different sessions contend only when they share a shard,
// and then only for the map lookup. A per-slot mutex serializes the
// slot's ExecutionContext between step(), step_tick() workers, and
// eviction (eviction only claims slots whose mutex it can take without
// blocking — never one mid-step). A stale id (closed or evicted) throws
// pit::Error; ids are never reused.
//
// Lock ranks: runtime/lock_rank.hpp, checked on every acquisition.
// last_step is an atomic written under the slot mutex with relaxed
// order; shard scans read it relaxed as an ADVISORY filter only —
// eviction re-reads it after winning the slot's try_lock (the mutex
// acquire synchronizes with the stepping thread's release), and that
// re-read is the authoritative idleness decision.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/compiled_net.hpp"
#include "runtime/lock_rank.hpp"
#include "runtime/plan_registry.hpp"
#include "serve/session_allocator.hpp"
#include "tensor/tensor.hpp"

namespace pit::serve {

struct SessionManagerOptions {
  /// Hard cap on live sessions across all shards. open() beyond it
  /// evicts the stalest idle-timed-out session, or throws when nothing
  /// is evictable.
  std::size_t max_sessions = 4096;
  /// Sessions idle at least this long are evictable (by open() under
  /// pressure and by evict_idle()). Zero disables idle eviction.
  std::chrono::milliseconds idle_timeout{0};
  /// Worker threads for step_tick (the caller participates too, so the
  /// tick runs on tick_threads + 1 cores). 0 picks hardware concurrency
  /// minus one, capped at 8. The pool starts on the first tick; pure
  /// step() callers never pay for it.
  int tick_threads = 0;
  /// Registry shards (rounded up to a power of two, capped at 64).
  /// 0 picks hardware concurrency. One shard reproduces the old
  /// single-mutex behavior exactly.
  std::size_t shards = 0;
  /// Per-shard cap for the session allocator's recycled-block cache.
  std::size_t max_cached_bytes_per_shard = 8ULL << 20;  // 8 MiB
};

/// Per-session counters (a snapshot; the session keeps moving).
struct SessionStats {
  std::uint64_t steps = 0;  ///< Steps since open (reset restarts the
                            ///< sequence, not this counter).
  std::chrono::steady_clock::time_point created;
  std::chrono::steady_clock::time_point last_step;
};

/// Fleet counters — global via stats(), striped via shard_stats().
/// Every field of the per-shard snapshots sums to the global snapshot
/// except ticks: a tick spans shards, so it is reported globally only
/// (shard_stats().ticks is always 0).
struct SessionManagerStats {
  std::uint64_t opened = 0;
  std::uint64_t closed = 0;
  std::uint64_t evicted = 0;
  std::uint64_t recycled = 0;  ///< opens served from a pooled free slot
  std::uint64_t steps = 0;     ///< session-steps across all sessions
  std::uint64_t ticks = 0;     ///< step_tick calls (global only)
  std::size_t active = 0;
  std::size_t pooled = 0;      ///< free slots holding recyclable state
};

class SessionManager {
 public:
  using SessionId = std::uint64_t;

  /// Serves the handle's model: every open() pins the version active at
  /// that moment (hot swap moves new sessions to the new version; live
  /// sessions finish their sequences on the version they opened with).
  explicit SessionManager(runtime::PlanHandle handle,
                          SessionManagerOptions options = {});
  /// Single-plan adapter: wraps `plan` in a one-entry registry. Behaves
  /// exactly like the pre-registry manager.
  explicit SessionManager(std::shared_ptr<const runtime::CompiledPlan> plan,
                          SessionManagerOptions options = {});
  ~SessionManager();
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Starts a new sequence and returns its id. Recycles a pooled slot
  /// when one exists (reset to the implicit causal padding — bit-identical
  /// to a fresh session); under pressure evicts the globally stalest
  /// timed-out session; throws pit::Error when the manager is full of
  /// live, non-evictable sessions.
  SessionId open();

  /// Ends a sequence and pools its slot for reuse. Throws on a stale id.
  void close(SessionId id);

  /// Advances one session by one time step: `input` is input_channels()
  /// floats, `output` receives output_channels() floats — column t of the
  /// whole-sequence forward (bit-exact for int8 plans).
  void step(SessionId id, const float* input, float* output);
  /// Tensor convenience overload: (C,) in, (C_out,) out.
  Tensor step(SessionId id, const Tensor& input);

  /// Advances `count` sessions by one step each, spread over the worker
  /// pool: inputs is (count, C) row-major, outputs (count, C_out). Ids
  /// must be distinct live sessions. Equivalent to count step() calls,
  /// minus the per-call dispatch and plus the parallelism.
  void step_tick(const SessionId* ids, std::size_t count,
                 const float* inputs, float* outputs);
  /// Tensor convenience overload: inputs (S, C) -> outputs (S, C_out).
  Tensor step_tick(const std::vector<SessionId>& ids, const Tensor& inputs);

  /// Restarts a session's sequence (history back to the causal padding).
  void reset(SessionId id);

  /// Evicts every session idle at least `min_idle` (pass the options'
  /// idle_timeout for the configured policy). Shard-local sweeps; never
  /// touches a session mid-step. Returns how many.
  std::size_t evict_idle(std::chrono::milliseconds min_idle);

  /// Releases every pooled slot's buffers and trims each shard's
  /// allocator cache to `target_cached_bytes_per_shard` (0 = release
  /// everything reclaimable to the OS). Live sessions are untouched.
  void trim(std::size_t target_cached_bytes_per_shard = 0);

  /// True while `id` names a live (non-closed, non-evicted) session.
  bool alive(SessionId id) const;
  SessionStats session_stats(SessionId id) const;
  SessionManagerStats stats() const;
  /// One shard's slice of stats() (ticks excepted — see the struct doc).
  SessionManagerStats shard_stats(std::size_t shard) const;
  SessionAllocatorStats allocator_stats() const { return alloc_->stats(); }
  std::size_t num_shards() const { return shards_.size(); }
  /// Home shard encoded in an id (ids are never rehomed).
  std::size_t shard_of(SessionId id) const {
    return static_cast<std::size_t>(id) & shard_mask_;
  }
  /// The model's currently-active plan (a fresh pin; sessions opened
  /// before a swap may still be running an older version).
  std::shared_ptr<const runtime::CompiledPlan> plan() const {
    return handle_.acquire().plan();
  }
  /// Registry version the session pinned at open().
  std::uint64_t session_version(SessionId id) const;

 private:
  struct Shard;

  struct Slot {
    Slot(std::pmr::memory_resource* mr, Shard* home_shard)
        : ctx(mr), home(home_shard) {}
    runtime::ExecutionContext ctx;
    Shard* home;  // fixed at creation; per-shard step counter lives here
    // The plan this tenant pinned at open() — a session streams its whole
    // sequence on one version even while swaps move the model forward;
    // the pin is what keeps an unswapped-away version's weights alive.
    std::shared_ptr<const runtime::CompiledPlan> plan;
    std::uint64_t version = 0;
    SessionId id = 0;  // 0 = pooled
    std::uint64_t steps = 0;
    std::chrono::steady_clock::time_point created;
    // Written (relaxed) under the slot mutex by run_step; shard sweeps
    // read it relaxed as an advisory pre-filter and must re-read after
    // taking the slot mutex before acting on it (see the header doc).
    std::atomic<std::chrono::steady_clock::time_point> last_step;
    // Serializes ctx between step/tick/eviction.
    runtime::RankedMutex<runtime::LockRank::kSlot> mutex;
  };

  /// One registry stripe: everything below is guarded by `mutex` except
  /// `steps`, which run_step bumps lock-free on the hot path.
  struct Shard {
    std::size_t index = 0;
    // Map, slot storage, free list, counters.
    mutable runtime::RankedMutex<runtime::LockRank::kShard> mutex;
    std::unordered_map<SessionId, std::size_t> index_map;
    std::vector<std::unique_ptr<Slot>> slots;
    std::vector<std::size_t> free_list;
    std::uint64_t next_seq = 1;
    std::uint64_t opened = 0;
    std::uint64_t closed = 0;
    std::uint64_t evicted = 0;
    std::uint64_t recycled = 0;
    std::atomic<std::uint64_t> steps{0};
  };

  Shard& shard_for(SessionId id) const {
    return *shards_[static_cast<std::size_t>(id) & shard_mask_];
  }
  Slot* resolve(SessionId id) const;
  /// shard.mutex held: installs a new tenant into slot `idx` and maps it.
  SessionId install_locked(Shard& shard, std::size_t idx,
                           runtime::PlanLease& lease,
                           std::chrono::steady_clock::time_point now);
  /// Evicts the globally stalest timed-out session and installs the new
  /// tenant in its slot. Returns 0 when nothing is evictable.
  SessionId open_via_eviction(runtime::PlanLease& lease,
                              std::chrono::steady_clock::time_point now);
  void run_step(Slot* slot, SessionId id, const float* input,
                float* output);
  void ensure_pool_locked();
  void worker_loop();
  void work_on_tick();

  runtime::PlanHandle handle_;
  SessionManagerOptions options_;
  // Versions of one model share geometry (the registry enforces it), so
  // shape validation never needs to resolve the active version.
  index_t in_channels_ = 0;
  index_t out_channels_ = 0;

  // alloc_ is declared before shards_ so it outlives every slot's
  // ExecutionContext (their pmr vectors return blocks to it on destroy).
  std::unique_ptr<SessionAllocator> alloc_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_bits_ = 0;
  std::size_t shard_mask_ = 0;
  // Global accounting: atomics, not a lock, so open/close on different
  // shards never serialize. total_slots_ is CAS-reserved against
  // max_sessions before creating a slot; free_count_ makes the
  // recycle-before-create probe O(1) when nothing is pooled.
  std::atomic<std::size_t> total_slots_{0};
  std::atomic<std::size_t> free_count_{0};
  std::atomic<std::uint64_t> open_cursor_{0};  // round-robin shard choice
  std::atomic<std::uint64_t> ticks_{0};

  // step_tick pool: one job at a time, guarded by tick_mutex_ (callers
  // serialize on it), handed to the workers through job fields + a
  // generation counter.
  // At most one tick in flight.
  runtime::RankedMutex<runtime::LockRank::kTick> tick_mutex_;
  // Job handoff + completion.
  runtime::RankedMutex<runtime::LockRank::kPool> pool_mutex_;
  std::condition_variable pool_cv_;  // wakes workers on a new generation
  std::condition_variable done_cv_;  // wakes the caller on completion
  std::vector<std::thread> workers_;
  bool pool_stop_ = false;
  std::uint64_t tick_gen_ = 0;
  // Current job (valid while pending_ > 0). tick_by_shard_ is the
  // per-shard grouping scratch reused across ticks (tick_mutex_ held).
  std::vector<Slot*> tick_slots_;
  std::vector<SessionId> tick_ids_;
  std::vector<std::vector<std::size_t>> tick_by_shard_;
  const float* tick_inputs_ = nullptr;
  float* tick_outputs_ = nullptr;
  std::size_t tick_count_ = 0;
  std::size_t tick_next_ = 0;     // next unclaimed session (pool_mutex_)
  std::size_t tick_pending_ = 0;  // sessions not yet finished
  std::exception_ptr tick_error_;
};

}  // namespace pit::serve
