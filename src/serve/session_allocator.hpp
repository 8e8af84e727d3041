// Size-bucketed caching allocator for session execution state.
//
// A fleet of ~1M streaming sessions allocates the same few buffer shapes
// over and over: ring-buffer blocks, per-value step vectors, and (for
// sessions that also run batched forwards) arena scratch. Hitting malloc
// for every open/close cycle serializes the fleet on the global heap lock
// and shreds the allocator's size classes; the proven shape for this —
// PyTorch's caffe2 caching allocator — is to round every request up to a
// power-of-two bucket and recycle freed blocks through per-bucket free
// lists instead of returning them to the OS.
//
// This is that allocator, striped the same way the session table is:
// one cache per shard, each with its own mutex and free lists, so two
// shards' sessions never contend on an allocation. It plugs into the
// runtime through the std::pmr seam — ExecutionContext built with
// shard_resource(s) routes every buffer through shard s's cache.
//
// Guarantees:
//   zeroed     — every allocation (fresh or recycled) is returned
//                zero-filled, so a recycled block is bit-identical to a
//                fresh one and one session's data can never bleed into
//                the next tenant of its bytes.
//   bounded    — each shard caches at most max_cached_bytes_per_shard;
//                crossing the bound bulk-trims the cache to half the
//                bound (amortized, not one free per release). trim()
//                releases further, down to any target.
//   poisoned   — in ASan builds every cached block is poisoned while it
//                sits in a free list (runtime/hardening.hpp), so a
//                use-after-release into the cache dies at the faulting
//                instruction instead of silently reading a block the
//                cache would otherwise keep mapped forever
//                (tests/test_session_allocator.cpp proves it trips).
//
// Thread safety: all methods are safe from any thread; the per-shard
// cache_mutex is the only lock and is never held across a user callback.
// Its rank is LockRank::kCache (runtime/lock_rank.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <utility>
#include <vector>

namespace pit::serve {

struct SessionAllocatorOptions {
  /// Cap on recycled bytes each shard may cache. Crossing it bulk-trims
  /// the shard's free lists to half this bound.
  std::size_t max_cached_bytes_per_shard = 8ULL << 20;  // 8 MiB
};

/// Counters over all shards (or one shard via shard_stats). Byte figures
/// are in bucket-rounded terms — exactly what the cache holds or owes.
struct SessionAllocatorStats {
  std::uint64_t allocations = 0;    ///< allocate calls served
  std::uint64_t cache_hits = 0;     ///< served from a free list
  std::uint64_t releases = 0;       ///< deallocate calls
  std::uint64_t trims = 0;          ///< bulk trims (bound crossings + trim())
  std::uint64_t trimmed_blocks = 0; ///< blocks returned to the OS by trims
  std::size_t live_bytes = 0;       ///< handed out, not yet released
  std::size_t live_blocks = 0;
  std::size_t cached_bytes = 0;     ///< sitting in free lists
  std::size_t cached_blocks = 0;
};

class SessionAllocator {
 public:
  /// Smallest bucket: requests below this share one class.
  static constexpr std::size_t kMinBucketBytes = 64;
  /// Largest cached bucket (64 MiB). Bigger requests pass straight
  /// through to the OS — they are not session-churn shapes.
  static constexpr std::size_t kMaxBucketBytes = 1ULL << 26;
  static constexpr std::size_t kNumBuckets = 21;  // 2^6 .. 2^26
  /// Every block is aligned to this (covers any vector element type and
  /// keeps blocks cache-line clean).
  static constexpr std::size_t kAlignment = 64;

  explicit SessionAllocator(std::size_t shards,
                            SessionAllocatorOptions options = {});
  ~SessionAllocator();
  SessionAllocator(const SessionAllocator&) = delete;
  SessionAllocator& operator=(const SessionAllocator&) = delete;

  /// The memory resource of shard `shard` — hand it to every
  /// ExecutionContext homed on that shard. Valid for the allocator's
  /// lifetime; the allocator must outlive every container using it.
  std::pmr::memory_resource* shard_resource(std::size_t shard);

  std::size_t shards() const { return shards_.size(); }

  /// Bucket class a request maps to (public so the property tests can
  /// state reuse expectations exactly).
  static std::size_t bucket_class(std::size_t bytes);
  /// Rounded byte size of a bucket class.
  static std::size_t bucket_bytes(std::size_t cls) {
    return kMinBucketBytes << cls;
  }

  /// Trims every shard's cache down to `target_bytes_per_shard` (0 =
  /// empty the caches entirely), returning the freed blocks to the OS.
  void trim(std::size_t target_bytes_per_shard = 0);

  SessionAllocatorStats stats() const;
  SessionAllocatorStats shard_stats(std::size_t shard) const;

 private:
  class Resource;
  struct Shard;

  void* allocate_in(Shard& shard, std::size_t bytes, std::size_t align);
  void deallocate_in(Shard& shard, void* p, std::size_t bytes) noexcept;
  /// Under shard.cache_mutex: move blocks out of the free lists into
  /// `spill` until cached_bytes <= target_bytes. Caller frees the spill
  /// outside the lock.
  static void collect_trim(Shard& shard, std::size_t target_bytes,
                           std::vector<std::pair<void*, std::size_t>>& spill);

  SessionAllocatorOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Resource>> resources_storage_;
};

}  // namespace pit::serve
