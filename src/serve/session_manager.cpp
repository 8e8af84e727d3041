#include "serve/session_manager.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "tensor/error.hpp"

namespace pit::serve {

namespace {

int default_tick_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int spare = hw > 1 ? static_cast<int>(hw) - 1 : 0;
  return std::min(spare, 8);
}

std::size_t pick_shards(std::size_t requested) {
  std::size_t n = requested;
  if (n == 0) {
    n = std::max(1U, std::thread::hardware_concurrency());
  }
  n = std::bit_ceil(n);
  return std::min<std::size_t>(n, 64);
}

}  // namespace

SessionManager::SessionManager(runtime::PlanHandle handle,
                               SessionManagerOptions options)
    : handle_(std::move(handle)), options_(options) {
  PIT_CHECK(handle_, "SessionManager: empty plan handle");
  const runtime::PlanLease lease = handle_.acquire();
  PIT_CHECK(lease->streamable(),
            "SessionManager: plan is not streamable — it contains a pool, "
            "linear, or strided conv; serve whole windows through "
            "InferenceServer instead");
  in_channels_ = lease->input_channels();
  out_channels_ = lease->output_channels();
  PIT_CHECK(options_.max_sessions >= 1, "SessionManager: max_sessions = 0");
  if (options_.tick_threads <= 0) {
    options_.tick_threads = default_tick_threads();
  }
  options_.shards = pick_shards(options_.shards);
  shard_bits_ =
      static_cast<std::size_t>(std::countr_zero(options_.shards));
  shard_mask_ = options_.shards - 1;
  alloc_ = std::make_unique<SessionAllocator>(
      options_.shards,
      SessionAllocatorOptions{options_.max_cached_bytes_per_shard});
  shards_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->index = s;
  }
}

SessionManager::SessionManager(
    std::shared_ptr<const runtime::CompiledPlan> plan,
    SessionManagerOptions options)
    : SessionManager(runtime::PlanHandle::single(std::move(plan)), options) {}

SessionManager::~SessionManager() {
  {
    std::lock_guard lock(pool_mutex_);
    pool_stop_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
}

SessionManager::SessionId SessionManager::install_locked(
    Shard& shard, std::size_t idx, runtime::PlanLease& lease,
    std::chrono::steady_clock::time_point now) {
  Slot* slot = shard.slots[idx].get();
  const SessionId id =
      (shard.next_seq++ << shard_bits_) | static_cast<SessionId>(shard.index);
  // Reset-on-reuse: the next step starts from the implicit causal padding
  // again, exactly like a freshly constructed context (the plan re-fills
  // the ring buffers on rebind). The slot mutex is held for the rewrite:
  // a stale step() that resolved this slot before its previous tenant
  // closed may be about to lock it and read the tenancy fields.
  {
    std::lock_guard slot_lock(slot->mutex);
    slot->ctx.reset_stream();
    slot->plan = lease.plan();
    slot->version = lease.version();
    slot->id = id;
    slot->steps = 0;
    slot->created = now;
    slot->last_step.store(now, std::memory_order_relaxed);
  }
  shard.index_map.emplace(id, idx);
  ++shard.opened;
  return id;
}

SessionManager::SessionId SessionManager::open() {
  // Resolve the active version before taking any serve lock: the lease's
  // ticket covers the window until the slot pins the plan, so a swap
  // completing concurrently cannot leave this session on a torn version.
  runtime::PlanLease lease = handle_.acquire();
  const auto now = std::chrono::steady_clock::now();
  const std::size_t start = static_cast<std::size_t>(
      open_cursor_.fetch_add(1, std::memory_order_relaxed)) & shard_mask_;
  // 1. Recycle a pooled slot. free_count_ is advisory (a concurrent open
  // may win the race to a probed shard); a miss just falls through.
  if (free_count_.load(std::memory_order_relaxed) > 0) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = *shards_[(start + i) & shard_mask_];
      std::lock_guard lock(shard.mutex);
      if (shard.free_list.empty()) {
        continue;
      }
      const std::size_t idx = shard.free_list.back();
      shard.free_list.pop_back();
      free_count_.fetch_sub(1, std::memory_order_relaxed);
      ++shard.recycled;
      return install_locked(shard, idx, lease, now);
    }
  }
  // 2. Create a slot if the fleet is under the global cap. The CAS is
  // the reservation — once it wins, the slot exists and is never torn
  // down (slots are pooled on close, not destroyed).
  std::size_t total = total_slots_.load(std::memory_order_relaxed);
  while (total < options_.max_sessions) {
    if (total_slots_.compare_exchange_weak(total, total + 1,
                                           std::memory_order_relaxed)) {
      Shard& shard = *shards_[start];
      std::lock_guard lock(shard.mutex);
      shard.slots.push_back(std::make_unique<Slot>(
          alloc_->shard_resource(shard.index), &shard));
      return install_locked(shard, shard.slots.size() - 1, lease, now);
    }
  }
  // 3. Full: evict the globally stalest timed-out session.
  const SessionId id = open_via_eviction(lease, now);
  PIT_CHECK(id != 0,
            "SessionManager::open: " << options_.max_sessions
                                     << " live sessions and none is "
                                        "evictable — backpressure");
  return id;
}

SessionManager::SessionId SessionManager::open_via_eviction(
    runtime::PlanLease& lease, std::chrono::steady_clock::time_point now) {
  if (options_.idle_timeout.count() <= 0) {
    return 0;
  }
  const auto deadline = now - options_.idle_timeout;
  // Pass 1 — collect every timed-out candidate across the shards (one
  // shard locked at a time; the relaxed last_step read is advisory).
  std::vector<std::pair<std::chrono::steady_clock::time_point, SessionId>>
      candidates;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard lock(shard.mutex);
    for (const auto& [id, idx] : shard.index_map) {
      const auto last =
          shard.slots[idx]->last_step.load(std::memory_order_relaxed);
      if (last <= deadline) {
        candidates.emplace_back(last, id);
      }
    }
  }
  // Pass 2 — stalest first, revalidate under the locks: the candidate may
  // have been closed, stepped, or evicted by someone else since pass 1.
  // If the stalest is mid-step (its try_lock fails — it is not actually
  // idle), the next one is still a legitimate eviction, not a reason to
  // throw backpressure.
  std::sort(candidates.begin(), candidates.end());
  for (const auto& [stamp, victim] : candidates) {
    Shard& shard = shard_for(victim);
    std::lock_guard lock(shard.mutex);
    const auto it = shard.index_map.find(victim);
    if (it == shard.index_map.end()) {
      continue;  // closed or evicted since the scan
    }
    const std::size_t idx = it->second;
    Slot* slot = shard.slots[idx].get();
    if (!slot->mutex.try_lock()) {
      continue;  // mid-step: not idle, whatever its timestamp said
    }
    // Authoritative re-read: the try_lock's acquire pairs with the
    // stepping thread's unlock release, so a step that finished before
    // we got the mutex is visible here even though the scan's relaxed
    // read may have missed it.
    if (slot->last_step.load(std::memory_order_relaxed) > deadline) {
      slot->mutex.unlock();
      continue;
    }
    shard.index_map.erase(it);
    slot->id = 0;
    slot->plan.reset();
    slot->mutex.unlock();
    ++shard.evicted;
    ++shard.recycled;
    return install_locked(shard, idx, lease, now);
  }
  return 0;
}

void SessionManager::close(SessionId id) {
  Shard& shard = shard_for(id);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.index_map.find(id);
  PIT_CHECK(it != shard.index_map.end(),
            "SessionManager::close: unknown session " << id);
  const std::size_t idx = it->second;
  Slot* slot = shard.slots[idx].get();
  // Waits out a concurrent step on this session (a caller-contract
  // violation, but it must not corrupt the slot's next tenant).
  std::lock_guard slot_lock(slot->mutex);
  slot->id = 0;
  slot->plan.reset();  // a pooled slot must not pin a swapped-out version
  // A pooled slot holds no memory either: its rings and scratch go back
  // to the shard cache (bounded, poisoned) and the next tenant draws
  // them zero-filled — the recycle path's bit-identical-to-fresh reset.
  slot->ctx.release_buffers();
  shard.index_map.erase(it);
  shard.free_list.push_back(idx);
  free_count_.fetch_add(1, std::memory_order_relaxed);
  ++shard.closed;
}

SessionManager::Slot* SessionManager::resolve(SessionId id) const {
  Shard& shard = shard_for(id);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.index_map.find(id);
  PIT_CHECK(it != shard.index_map.end(),
            "SessionManager: unknown session " << id);
  return shard.slots[it->second].get();
}

void SessionManager::run_step(Slot* slot, SessionId id, const float* input,
                              float* output) {
  std::lock_guard slot_lock(slot->mutex);
  // The slot may have been evicted (and possibly re-opened) between the
  // registry lookup and here; its current tenant must not be disturbed.
  PIT_CHECK(slot->id == id,
            "SessionManager::step: session " << id << " was evicted");
  slot->plan->step(input, output, slot->ctx);
  ++slot->steps;
  // Relaxed is enough: readers that act on this either hold the slot
  // mutex (whose acquire pairs with this critical section's release) or
  // treat the value as advisory (shard sweeps).
  slot->last_step.store(std::chrono::steady_clock::now(),
                        std::memory_order_relaxed);
  slot->home->steps.fetch_add(1, std::memory_order_relaxed);
}

void SessionManager::step(SessionId id, const float* input, float* output) {
  // One in-flight ticket per step: a swap_active() of this model blocks
  // until mid-step work like this drains off the old epoch.
  const runtime::InflightTicket ticket = handle_.ticket();
  run_step(resolve(id), id, input, output);
}

Tensor SessionManager::step(SessionId id, const Tensor& input) {
  PIT_CHECK(input.rank() == 1 && input.dim(0) == in_channels_,
            "SessionManager::step: expected a ("
                << in_channels_ << ",) time-step vector, got "
                << input.shape().to_string());
  Tensor out = Tensor::empty(Shape{out_channels_});
  step(id, input.data(), out.data());
  return out;
}

void SessionManager::ensure_pool_locked() {
  if (!workers_.empty() || options_.tick_threads == 0) {
    return;
  }
  workers_.reserve(static_cast<std::size_t>(options_.tick_threads));
  for (int i = 0; i < options_.tick_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void SessionManager::work_on_tick() {
  // Claim small index chunks under the pool lock, run them outside it.
  for (;;) {
    std::size_t begin;
    std::size_t end;
    {
      std::lock_guard lock(pool_mutex_);
      if (tick_next_ >= tick_count_) {
        return;
      }
      const std::size_t chunk = std::max<std::size_t>(
          1, tick_count_ /
                 (8 * (static_cast<std::size_t>(options_.tick_threads) + 1)));
      begin = tick_next_;
      end = std::min(tick_count_, begin + chunk);
      tick_next_ = end;
    }
    const index_t c_in = in_channels_;
    const index_t c_out = out_channels_;
    std::exception_ptr error;
    for (std::size_t i = begin; i < end; ++i) {
      try {
        run_step(tick_slots_[i], tick_ids_[i], tick_inputs_ + i * c_in,
                 tick_outputs_ + i * c_out);
      } catch (...) {
        if (error == nullptr) {
          error = std::current_exception();
        }
      }
    }
    bool last = false;
    {
      std::lock_guard lock(pool_mutex_);
      if (error != nullptr && tick_error_ == nullptr) {
        tick_error_ = error;
      }
      tick_pending_ -= end - begin;
      last = tick_pending_ == 0;
    }
    if (last) {
      done_cv_.notify_all();
    }
  }
}

void SessionManager::worker_loop() {
  std::uint64_t seen_gen = 0;
  for (;;) {
    {
      std::lock_guard lock(pool_mutex_);
      pool_mutex_.wait(pool_cv_, [&] {
        return pool_stop_ || (tick_gen_ != seen_gen && tick_pending_ > 0);
      });
      if (pool_stop_) {
        return;
      }
      seen_gen = tick_gen_;
    }
    work_on_tick();
  }
}

void SessionManager::step_tick(const SessionId* ids, std::size_t count,
                               const float* inputs, float* outputs) {
  if (count == 0) {
    return;
  }
  // One in-flight ticket covers the whole tick (each session still runs
  // on its own pinned plan; the ticket only holds a concurrent swap's
  // drain until the tick finishes).
  const runtime::InflightTicket ticket = handle_.ticket();
  // One tick at a time: concurrent tickers queue here rather than
  // interleaving their jobs through the pool.
  std::lock_guard tick_lock(tick_mutex_);
  tick_slots_.resize(count);
  tick_ids_.assign(ids, ids + count);
  // Resolve grouped by home shard: each shard is locked exactly once per
  // tick instead of once per session, and no lock spans the whole batch.
  if (tick_by_shard_.size() != shards_.size()) {
    tick_by_shard_.resize(shards_.size());
  }
  for (std::vector<std::size_t>& group : tick_by_shard_) {
    group.clear();
  }
  for (std::size_t i = 0; i < count; ++i) {
    tick_by_shard_[shard_of(ids[i])].push_back(i);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::vector<std::size_t>& group = tick_by_shard_[s];
    if (group.empty()) {
      continue;
    }
    Shard& shard = *shards_[s];
    std::lock_guard lock(shard.mutex);
    for (const std::size_t pos : group) {
      const auto it = shard.index_map.find(tick_ids_[pos]);
      PIT_CHECK(it != shard.index_map.end(),
                "SessionManager::step_tick: unknown session "
                    << tick_ids_[pos]);
      tick_slots_[pos] = shard.slots[it->second].get();
    }
  }
  {
    std::lock_guard lock(pool_mutex_);
    ensure_pool_locked();
    tick_inputs_ = inputs;
    tick_outputs_ = outputs;
    tick_count_ = count;
    tick_next_ = 0;
    tick_pending_ = count;
    tick_error_ = nullptr;
    ++tick_gen_;
  }
  pool_cv_.notify_all();
  work_on_tick();  // the caller is a worker too
  std::exception_ptr error;
  {
    std::lock_guard lock(pool_mutex_);
    pool_mutex_.wait(done_cv_, [&] { return tick_pending_ == 0; });
    error = tick_error_;
  }
  ticks_.fetch_add(1, std::memory_order_relaxed);
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

Tensor SessionManager::step_tick(const std::vector<SessionId>& ids,
                                 const Tensor& inputs) {
  const auto n = static_cast<index_t>(ids.size());
  PIT_CHECK(inputs.rank() == 2 && inputs.dim(0) == n &&
                inputs.dim(1) == in_channels_,
            "SessionManager::step_tick: expected ("
                << n << ", " << in_channels_ << ") inputs, got "
                << inputs.shape().to_string());
  Tensor out = Tensor::empty(Shape{n, out_channels_});
  step_tick(ids.data(), ids.size(), inputs.data(), out.data());
  return out;
}

void SessionManager::reset(SessionId id) {
  Slot* slot = resolve(id);
  std::lock_guard slot_lock(slot->mutex);
  PIT_CHECK(slot->id == id,
            "SessionManager::reset: session " << id << " was evicted");
  slot->ctx.reset_stream();
}

std::size_t SessionManager::evict_idle(std::chrono::milliseconds min_idle) {
  const auto now = std::chrono::steady_clock::now();
  const auto deadline = now - min_idle;
  std::size_t evicted = 0;
  // Shard-local sweeps: each shard is locked on its own, so a sweep never
  // stalls steps on the rest of the fleet.
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard lock(shard.mutex);
    for (auto it = shard.index_map.begin(); it != shard.index_map.end();) {
      Slot* slot = shard.slots[it->second].get();
      if (slot->last_step.load(std::memory_order_relaxed) > deadline ||
          !slot->mutex.try_lock()) {
        ++it;
        continue;
      }
      // Authoritative re-read under the slot mutex (see open_via_eviction).
      if (slot->last_step.load(std::memory_order_relaxed) > deadline) {
        slot->mutex.unlock();
        ++it;
        continue;
      }
      slot->id = 0;
      slot->plan.reset();
      slot->ctx.release_buffers();  // idle sweep: bytes back to the cache
      slot->mutex.unlock();
      shard.free_list.push_back(it->second);
      free_count_.fetch_add(1, std::memory_order_relaxed);
      it = shard.index_map.erase(it);
      ++shard.evicted;
      ++evicted;
    }
  }
  return evicted;
}

void SessionManager::trim(std::size_t target_cached_bytes_per_shard) {
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard lock(shard.mutex);
    for (const std::size_t idx : shard.free_list) {
      Slot* slot = shard.slots[idx].get();
      // A pooled slot is normally uncontended; a stale step() racing a
      // close() may briefly hold the mutex, so wait rather than skip.
      std::lock_guard slot_lock(slot->mutex);
      slot->ctx.release_buffers();
    }
  }
  alloc_->trim(target_cached_bytes_per_shard);
}

bool SessionManager::alive(SessionId id) const {
  Shard& shard = shard_for(id);
  std::lock_guard lock(shard.mutex);
  return shard.index_map.count(id) > 0;
}

SessionStats SessionManager::session_stats(SessionId id) const {
  Slot* slot = resolve(id);
  std::lock_guard slot_lock(slot->mutex);
  PIT_CHECK(slot->id == id,
            "SessionManager::session_stats: session " << id
                                                      << " was evicted");
  SessionStats out;
  out.steps = slot->steps;
  out.created = slot->created;
  out.last_step = slot->last_step.load(std::memory_order_relaxed);
  return out;
}

std::uint64_t SessionManager::session_version(SessionId id) const {
  Slot* slot = resolve(id);
  std::lock_guard slot_lock(slot->mutex);
  PIT_CHECK(slot->id == id,
            "SessionManager::session_version: session " << id
                                                        << " was evicted");
  return slot->version;
}

SessionManagerStats SessionManager::shard_stats(std::size_t shard_index) const {
  PIT_CHECK(shard_index < shards_.size(),
            "SessionManager::shard_stats: shard "
                << shard_index << " out of range (have " << shards_.size()
                << ")");
  const Shard& shard = *shards_[shard_index];
  std::lock_guard lock(shard.mutex);
  SessionManagerStats out;
  out.opened = shard.opened;
  out.closed = shard.closed;
  out.evicted = shard.evicted;
  out.recycled = shard.recycled;
  out.steps = shard.steps.load(std::memory_order_relaxed);
  out.ticks = 0;  // global only — a tick spans shards
  out.active = shard.index_map.size();
  out.pooled = shard.free_list.size();
  return out;
}

SessionManagerStats SessionManager::stats() const {
  SessionManagerStats out;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard lock(shard.mutex);
    out.opened += shard.opened;
    out.closed += shard.closed;
    out.evicted += shard.evicted;
    out.recycled += shard.recycled;
    out.steps += shard.steps.load(std::memory_order_relaxed);
    out.active += shard.index_map.size();
    out.pooled += shard.free_list.size();
  }
  out.ticks = ticks_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace pit::serve
