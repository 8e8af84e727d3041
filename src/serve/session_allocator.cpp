#include "serve/session_allocator.hpp"

#include <bit>
#include <cstring>
#include <mutex>
#include <new>
#include <utility>

#include "runtime/hardening.hpp"
#include "runtime/lock_rank.hpp"
#include "tensor/error.hpp"

namespace pit::serve {

namespace {

void* os_allocate(std::size_t bytes) {
  return ::operator new(bytes, std::align_val_t{SessionAllocator::kAlignment});
}

void os_free(void* p) noexcept {
  ::operator delete(p, std::align_val_t{SessionAllocator::kAlignment});
}

}  // namespace

/// One shard's cache: free lists per bucket class plus its counters.
/// cache_mutex is the shard's only lock; blocks are poisoned BEFORE they
/// enter a free list and unpoisoned AFTER they leave it, so no thread
/// ever poisons memory another thread already owns.
struct SessionAllocator::Shard {
  mutable runtime::RankedMutex<runtime::LockRank::kCache> cache_mutex;
  std::array<std::vector<void*>, kNumBuckets> free_lists;
  SessionAllocatorStats stats;
};

/// The std::pmr face of one shard. ExecutionContext's vectors call
/// do_allocate/do_deallocate; both forward to the owning allocator with
/// the shard baked in.
class SessionAllocator::Resource final : public std::pmr::memory_resource {
 public:
  Resource(SessionAllocator* owner, Shard* shard)
      : owner_(owner), shard_(shard) {}

 private:
  void* do_allocate(std::size_t bytes, std::size_t align) override {
    return owner_->allocate_in(*shard_, bytes, align);
  }
  void do_deallocate(void* p, std::size_t bytes,
                     std::size_t /*align*/) override {
    owner_->deallocate_in(*shard_, p, bytes);
  }
  bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  SessionAllocator* owner_;
  Shard* shard_;
};

SessionAllocator::SessionAllocator(std::size_t shards,
                                   SessionAllocatorOptions options)
    : options_(options) {
  PIT_CHECK(shards >= 1, "SessionAllocator: shards = 0");
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  resources_storage_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    resources_storage_.push_back(
        std::make_unique<Resource>(this, shards_[s].get()));
  }
}

SessionAllocator::~SessionAllocator() {
  // Return every cached block to the OS. Live blocks are a caller bug
  // (a container outliving its allocator) — nothing safe to do here.
  trim(0);
}

std::pmr::memory_resource* SessionAllocator::shard_resource(
    std::size_t shard) {
  PIT_CHECK(shard < shards_.size(),
            "SessionAllocator: shard " << shard << " out of range (have "
                                       << shards_.size() << ")");
  return resources_storage_[shard].get();
}

std::size_t SessionAllocator::bucket_class(std::size_t bytes) {
  if (bytes <= kMinBucketBytes) {
    return 0;
  }
  return static_cast<std::size_t>(std::bit_width(bytes - 1)) - 6;
}

void* SessionAllocator::allocate_in(Shard& shard, std::size_t bytes,
                                    std::size_t align) {
  PIT_CHECK(align <= kAlignment,
            "SessionAllocator: alignment " << align << " exceeds "
                                           << kAlignment);
  if (bytes == 0) {
    bytes = 1;
  }
  if (bytes > kMaxBucketBytes) {
    // Pass-through: too large to be a recycled session shape. Still
    // zeroed and still counted, so the leak accounting stays exact.
    void* p = os_allocate(bytes);
    std::memset(p, 0, bytes);
    std::lock_guard lock(shard.cache_mutex);
    ++shard.stats.allocations;
    shard.stats.live_bytes += bytes;
    ++shard.stats.live_blocks;
    return p;
  }
  const std::size_t cls = bucket_class(bytes);
  const std::size_t rounded = bucket_bytes(cls);
  void* p = nullptr;
  {
    std::lock_guard lock(shard.cache_mutex);
    ++shard.stats.allocations;
    std::vector<void*>& list = shard.free_lists[cls];
    if (!list.empty()) {
      p = list.back();
      list.pop_back();
      shard.stats.cached_bytes -= rounded;
      --shard.stats.cached_blocks;
      ++shard.stats.cache_hits;
    }
    shard.stats.live_bytes += rounded;
    ++shard.stats.live_blocks;
  }
  if (p != nullptr) {
    // Leaving the cache: lift the poison before anyone touches it.
    runtime::hardening::unpoison(p, rounded);
  } else {
    p = os_allocate(rounded);
  }
  // Zero-reset on EVERY path: a recycled bucket is bit-identical to a
  // fresh one, and a previous tenant's bytes never reach the next.
  std::memset(p, 0, rounded);
  return p;
}

void SessionAllocator::deallocate_in(Shard& shard, void* p,
                                     std::size_t bytes) noexcept {
  if (p == nullptr) {
    return;
  }
  if (bytes == 0) {
    bytes = 1;
  }
  if (bytes > kMaxBucketBytes) {
    os_free(p);
    std::lock_guard lock(shard.cache_mutex);
    ++shard.stats.releases;
    shard.stats.live_bytes -= bytes;
    --shard.stats.live_blocks;
    return;
  }
  const std::size_t cls = bucket_class(bytes);
  const std::size_t rounded = bucket_bytes(cls);
  // Poison BEFORE the block becomes visible in the free list — once it
  // is published another thread may pop and unpoison it, and a late
  // poison would land on live memory.
  runtime::hardening::poison(p, rounded);
  std::vector<std::pair<void*, std::size_t>> spill;
  {
    std::lock_guard lock(shard.cache_mutex);
    ++shard.stats.releases;
    shard.stats.live_bytes -= rounded;
    --shard.stats.live_blocks;
    shard.free_lists[cls].push_back(p);
    shard.stats.cached_bytes += rounded;
    ++shard.stats.cached_blocks;
    if (shard.stats.cached_bytes > options_.max_cached_bytes_per_shard) {
      // Bulk trim to half the bound: one crossing pays for many future
      // releases instead of thrashing at the boundary.
      collect_trim(shard, options_.max_cached_bytes_per_shard / 2, spill);
      ++shard.stats.trims;
    }
  }
  for (const auto& [block, size] : spill) {
    (void)size;
    os_free(block);  // freeing a poisoned block is fine — ASan unmaps it
  }
}

void SessionAllocator::collect_trim(
    Shard& shard, std::size_t target_bytes,
    std::vector<std::pair<void*, std::size_t>>& spill) {
  // cache_mutex held. Evict largest buckets first: fewest frees per byte.
  for (std::size_t cls = kNumBuckets; cls-- > 0;) {
    std::vector<void*>& list = shard.free_lists[cls];
    const std::size_t block = bucket_bytes(cls);
    while (!list.empty() && shard.stats.cached_bytes > target_bytes) {
      spill.emplace_back(list.back(), block);
      list.pop_back();
      shard.stats.cached_bytes -= block;
      --shard.stats.cached_blocks;
      ++shard.stats.trimmed_blocks;
    }
    if (shard.stats.cached_bytes <= target_bytes) {
      break;
    }
  }
}

void SessionAllocator::trim(std::size_t target_bytes_per_shard) {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::vector<std::pair<void*, std::size_t>> spill;
    {
      std::lock_guard lock(shard->cache_mutex);
      if (shard->stats.cached_bytes > target_bytes_per_shard) {
        collect_trim(*shard, target_bytes_per_shard, spill);
        ++shard->stats.trims;
      }
    }
    for (const auto& [block, size] : spill) {
      (void)size;
      os_free(block);
    }
  }
}

SessionAllocatorStats SessionAllocator::shard_stats(std::size_t shard) const {
  PIT_CHECK(shard < shards_.size(),
            "SessionAllocator: shard " << shard << " out of range (have "
                                       << shards_.size() << ")");
  std::lock_guard lock(shards_[shard]->cache_mutex);
  return shards_[shard]->stats;
}

SessionAllocatorStats SessionAllocator::stats() const {
  SessionAllocatorStats out;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard lock(shard->cache_mutex);
    const SessionAllocatorStats& s = shard->stats;
    out.allocations += s.allocations;
    out.cache_hits += s.cache_hits;
    out.releases += s.releases;
    out.trims += s.trims;
    out.trimmed_blocks += s.trimmed_blocks;
    out.live_bytes += s.live_bytes;
    out.live_blocks += s.live_blocks;
    out.cached_bytes += s.cached_bytes;
    out.cached_blocks += s.cached_blocks;
  }
  return out;
}

}  // namespace pit::serve
