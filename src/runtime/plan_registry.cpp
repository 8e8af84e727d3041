#include "runtime/plan_registry.hpp"

#include <atomic>
#include <utility>

#include "tensor/error.hpp"

namespace pit::runtime {

namespace registry_detail {

struct VersionState {
  std::shared_ptr<const CompiledPlan> fp32;  // the registered (primary) plan
  std::shared_ptr<const CompiledPlan> int8;  // lazy lowering, or null
  std::uint64_t fingerprint = 0;
  std::string shape_class;
};

struct ModelEntry {
  // versions / active are guarded by PlanRegistry::registry_mutex_; the
  // epoch only flips under that mutex too, but is read lock-free by the
  // ticket path. inflight[p] counts work admitted while epoch parity was
  // p; draining gates the ticket-release notify so the idle hot path
  // never touches registry_mutex_.
  std::vector<VersionState> versions;
  std::size_t active = 0;
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::int64_t> inflight[2] = {};
  std::atomic<bool> draining{false};
  RankedMutex<LockRank::kSwap> swap_mutex;  // serializes swap_active per model
};

}  // namespace registry_detail

using registry_detail::ModelEntry;
using registry_detail::VersionState;

std::uint64_t weights_fingerprint(const nn::Module& model) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const nn::NamedParameter& p) {
    h = hash_bytes(p.name.data(), p.name.size(), h);
    for (int d = 0; d < p.value.rank(); ++d) {
      const index_t dim = p.value.dim(d);
      h = hash_bytes(&dim, sizeof(dim), h);
    }
    h = hash_bytes(p.value.data(),
                   static_cast<std::size_t>(p.value.numel()) * sizeof(float),
                   h);
  };
  for (const nn::NamedParameter& p : model.named_parameters()) {
    mix(p);
  }
  // Buffers participate because batch-norm running statistics fold into
  // the compiled conv weights — two checkpoints with equal parameters but
  // different running stats compile to different plans.
  for (const nn::NamedParameter& b : model.named_buffers()) {
    mix(b);
  }
  return h;
}

PlanRegistry::PlanRegistry() = default;
PlanRegistry::~PlanRegistry() = default;

void InflightTicket::release() {
  if (reg_ != nullptr) {
    reg_->release_ticket(entry_, parity_);
    reg_ = nullptr;
  }
}

ModelEntry* PlanRegistry::entry(const std::string& model) const {
  std::lock_guard lock(registry_mutex_);
  const auto it = models_.find(model);
  PIT_CHECK(it != models_.end(),
            "PlanRegistry: unknown model '" << model << "'");
  return it->second.get();
}

std::uint64_t PlanRegistry::add_version_locked(
    const std::string& model, std::shared_ptr<const CompiledPlan> plan,
    std::uint64_t fingerprint, const std::string& shape_class) {
  std::unique_ptr<ModelEntry>& slot = models_[model];
  if (slot == nullptr) {
    slot = std::make_unique<ModelEntry>();
  }
  ModelEntry& e = *slot;
  for (std::size_t i = 0; i < e.versions.size(); ++i) {
    if (e.versions[i].fp32 == plan) {
      return i + 1;  // idempotent re-registration
    }
  }
  if (!e.versions.empty()) {
    const CompiledPlan& first = *e.versions.front().fp32;
    PIT_CHECK(plan->input_channels() == first.input_channels() &&
                  plan->input_steps() == first.input_steps() &&
                  plan->output_channels() == first.output_channels() &&
                  plan->output_steps() == first.output_steps(),
              "PlanRegistry::register_version('"
                  << model << "'): version geometry ("
                  << plan->input_channels() << ", " << plan->input_steps()
                  << ") -> (" << plan->output_channels() << ", "
                  << plan->output_steps()
                  << ") differs from the model's established geometry — "
                     "hot swap requires interchangeable versions");
  }
  VersionState v;
  v.fp32 = std::move(plan);
  v.fingerprint = fingerprint;
  v.shape_class = shape_class;
  e.versions.push_back(std::move(v));
  return e.versions.size();  // first version: active == 0 already
}

std::uint64_t PlanRegistry::register_version(const std::string& model,
                                             std::uint64_t fingerprint,
                                             const std::string& shape_class,
                                             const CompileFn& compile) {
  const PlanKey key{fingerprint, shape_class, PlanDtype::kF32};
  {
    std::lock_guard lock(registry_mutex_);
    const auto it = memo_.find(key);
    if (it != memo_.end()) {
      ++stats_.compile_hits;
      return add_version_locked(model, it->second, fingerprint, shape_class);
    }
  }
  // Cold compile outside the lock: registration of other models and the
  // serve hot path keep moving. Two threads racing the same key both
  // compile; the first insert wins and the loser's plan is dropped.
  std::shared_ptr<const CompiledPlan> plan = compile(pool_);
  PIT_CHECK(plan != nullptr,
            "PlanRegistry::register_version('" << model
                                               << "'): compile returned null");
  std::lock_guard lock(registry_mutex_);
  const auto [it, inserted] = memo_.try_emplace(key, std::move(plan));
  if (inserted) {
    ++stats_.compiles;
  } else {
    ++stats_.compile_hits;
  }
  return add_version_locked(model, it->second, fingerprint, shape_class);
}

std::uint64_t PlanRegistry::register_plan(
    const std::string& model, std::shared_ptr<const CompiledPlan> plan) {
  PIT_CHECK(plan != nullptr, "PlanRegistry::register_plan: null plan");
  // Fingerprint from the plan's own packed blocks + geometry, so two
  // registrations of bytewise-equal plans land on one memo entry.
  std::uint64_t fp = plan->param_content_hash();
  const index_t geom[4] = {plan->input_channels(), plan->input_steps(),
                           plan->output_channels(), plan->output_steps()};
  fp = hash_bytes(geom, sizeof(geom), fp);
  const std::string shape_class = "adapter";
  const PlanKey key{fp, shape_class, PlanDtype::kF32};
  std::lock_guard lock(registry_mutex_);
  const auto [it, inserted] = memo_.try_emplace(key, std::move(plan));
  if (!inserted) {
    ++stats_.compile_hits;
  }
  return add_version_locked(model, it->second, fp, shape_class);
}

std::shared_ptr<const CompiledPlan> PlanRegistry::quantized(
    const std::string& model, std::uint64_t version,
    const data::DataLoader& calibration, QuantizeOptions options) {
  ModelEntry* e = entry(model);
  std::shared_ptr<const CompiledPlan> src;
  {
    std::lock_guard lock(registry_mutex_);
    PIT_CHECK(version >= 1 && version <= e->versions.size(),
              "PlanRegistry::quantized('" << model << "'): version "
                                          << version << " of "
                                          << e->versions.size());
    VersionState& v = e->versions[version - 1];
    if (v.int8 != nullptr) {
      ++stats_.lowering_hits;
      return v.int8;
    }
    src = v.fp32;
  }
  // Calibrate + lower outside the lock (this runs whole forward passes).
  // s8 weights depend only on the fp32 weights, so interning through the
  // registry pool dedups unchanged layers across versions' lowerings.
  options.pool = &pool_;
  std::shared_ptr<const CompiledPlan> lowered =
      quantize_plan(*src, calibration, options);
  std::lock_guard lock(registry_mutex_);
  VersionState& v = e->versions[version - 1];
  if (v.int8 != nullptr) {
    ++stats_.lowering_hits;  // a concurrent caller won the race
    return v.int8;
  }
  v.int8 = std::move(lowered);
  ++stats_.lowerings;
  return v.int8;
}

void PlanRegistry::swap_active(const std::string& model,
                               std::uint64_t version) {
  ModelEntry* e = entry(model);
  // Per-model swap serialization first, then the registry lock: a ticket
  // release may notify under registry_mutex_ while this thread waits.
  std::lock_guard swap_lock(e->swap_mutex);
  std::lock_guard lock(registry_mutex_);
  PIT_CHECK(version >= 1 && version <= e->versions.size(),
            "PlanRegistry::swap_active('" << model << "'): version "
                                          << version << " of "
                                          << e->versions.size());
  if (e->active == version - 1) {
    return;  // already active — nothing to drain
  }
  const std::uint64_t old_epoch = e->epoch.load(std::memory_order_seq_cst);
  const unsigned old_parity = old_epoch & 1U;
  e->active = version - 1;
  // Flip: from here every acquire()/ticket() lands on the new parity.
  e->epoch.store(old_epoch + 1, std::memory_order_seq_cst);
  e->draining.store(true, std::memory_order_seq_cst);
  registry_mutex_.wait(drain_cv_, [&] {
    return e->inflight[old_parity].load(std::memory_order_seq_cst) == 0;
  });
  e->draining.store(false, std::memory_order_seq_cst);
  ++stats_.swaps;
}

PlanLease PlanRegistry::acquire_entry(ModelEntry* e, PlanDtype dtype) {
  std::lock_guard lock(registry_mutex_);
  PIT_CHECK(!e->versions.empty(), "PlanRegistry::acquire: model has no "
                                  "registered versions");
  const VersionState& v = e->versions[e->active];
  std::shared_ptr<const CompiledPlan> plan =
      dtype == PlanDtype::kF32 ? v.fp32 : v.int8;
  PIT_CHECK(plan != nullptr,
            "PlanRegistry::acquire: active version "
                << (e->active + 1)
                << " has no int8 lowering — call quantized() before "
                   "serving PlanDtype::kInt8");
  // The epoch cannot flip while registry_mutex_ is held (swap_active
  // flips under it), so this parity is the one a draining swap watches.
  const std::uint64_t ep = e->epoch.load(std::memory_order_seq_cst);
  e->inflight[ep & 1U].fetch_add(1, std::memory_order_seq_cst);
  ++stats_.leases;
  PlanLease lease;
  lease.plan_ = std::move(plan);
  lease.version_ = e->active + 1;
  lease.ticket_.reg_ = this;
  lease.ticket_.entry_ = e;
  lease.ticket_.parity_ = static_cast<unsigned>(ep & 1U);
  return lease;
}

InflightTicket PlanRegistry::ticket_entry(ModelEntry* e) {
  for (;;) {
    const std::uint64_t ep = e->epoch.load(std::memory_order_seq_cst);
    const auto parity = static_cast<unsigned>(ep & 1U);
    e->inflight[parity].fetch_add(1, std::memory_order_seq_cst);
    if (e->epoch.load(std::memory_order_seq_cst) == ep) {
      // seq_cst pairing: a swap that flipped the epoch after this
      // re-check must see the increment in its drain wait.
      InflightTicket t;
      t.reg_ = this;
      t.entry_ = e;
      t.parity_ = parity;
      return t;
    }
    // A swap flipped the epoch mid-admission: back out of the stale
    // parity (waking its drain if we were the last) and retry.
    release_ticket(e, parity);
  }
}

void PlanRegistry::release_ticket(ModelEntry* e, unsigned parity) {
  const std::int64_t left =
      e->inflight[parity].fetch_sub(1, std::memory_order_seq_cst) - 1;
  if (left == 0 && e->draining.load(std::memory_order_seq_cst)) {
    // Take the registry lock so the notify cannot slip between a
    // draining swap's predicate check and its wait.
    std::lock_guard lock(registry_mutex_);
    drain_cv_.notify_all();
  }
}

std::uint64_t PlanRegistry::active_version(const std::string& model) const {
  ModelEntry* e = entry(model);
  std::lock_guard lock(registry_mutex_);
  return e->active + 1;
}

std::size_t PlanRegistry::num_versions(const std::string& model) const {
  ModelEntry* e = entry(model);
  std::lock_guard lock(registry_mutex_);
  return e->versions.size();
}

bool PlanRegistry::has_model(const std::string& model) const {
  std::lock_guard lock(registry_mutex_);
  return models_.count(model) > 0;
}

PlanLease PlanRegistry::acquire(const std::string& model, PlanDtype dtype) {
  return acquire_entry(entry(model), dtype);
}

PlanRegistryStats PlanRegistry::stats() const {
  PlanRegistryStats out;
  {
    std::lock_guard lock(registry_mutex_);
    out = stats_;
  }
  out.pool = pool_.stats();
  return out;
}

void PlanRegistry::account_memory_locked(
    const ModelEntry& e, ModelMemory& m,
    std::unordered_map<const void*, std::size_t>& seen) {
  for (const VersionState& v : e.versions) {
    for (const std::shared_ptr<const CompiledPlan>& plan : {v.fp32, v.int8}) {
      if (plan == nullptr) {
        continue;
      }
      plan->visit_weight_blocks([&](const void* ptr, std::size_t bytes) {
        m.logical_bytes += bytes;
        seen.emplace(ptr, bytes);
      });
    }
  }
}

ModelMemory PlanRegistry::memory(const std::string& model) const {
  ModelEntry* e = entry(model);
  std::lock_guard lock(registry_mutex_);
  ModelMemory m;
  std::unordered_map<const void*, std::size_t> seen;
  account_memory_locked(*e, m, seen);
  for (const auto& [ptr, bytes] : seen) {
    m.resident_bytes += bytes;
  }
  return m;
}

ModelMemory PlanRegistry::memory() const {
  std::lock_guard lock(registry_mutex_);
  ModelMemory m;
  std::unordered_map<const void*, std::size_t> seen;
  for (const auto& [name, e] : models_) {
    account_memory_locked(*e, m, seen);
  }
  for (const auto& [ptr, bytes] : seen) {
    m.resident_bytes += bytes;
  }
  return m;
}

PlanHandle::PlanHandle(std::shared_ptr<PlanRegistry> registry,
                       std::string model, PlanDtype dtype)
    : registry_(std::move(registry)),
      model_(std::move(model)),
      dtype_(dtype) {
  PIT_CHECK(registry_ != nullptr, "PlanHandle: null registry");
  entry_ = registry_->entry(model_);  // throws for an unknown model
}

PlanHandle PlanHandle::single(std::shared_ptr<const CompiledPlan> plan) {
  auto registry = std::make_shared<PlanRegistry>();
  registry->register_plan("default", std::move(plan));
  return PlanHandle(std::move(registry), "default");
}

PlanLease PlanHandle::acquire() const {
  PIT_CHECK(registry_ != nullptr, "PlanHandle::acquire: empty handle");
  return registry_->acquire_entry(entry_, dtype_);
}

InflightTicket PlanHandle::ticket() const {
  PIT_CHECK(registry_ != nullptr, "PlanHandle::ticket: empty handle");
  return registry_->ticket_entry(entry_);
}

}  // namespace pit::runtime
