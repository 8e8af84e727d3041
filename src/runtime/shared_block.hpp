// Content-hash deduplicated weight storage for compiled plans.
//
// A CompiledPlan used to own its packed fp32 params and s8 qweights as flat
// private vectors. Multi-tenant serving (runtime/plan_registry.hpp) wants N
// versions of the same backbone resident at once, where consecutive versions
// typically differ in one or two layers — so the unit of ownership moves from
// "one flat pool per plan" to "one refcounted block per op", and a WeightPool
// interns identical blocks across plans by content hash. A plan's BlockTable
// maps the op's block handle (detail::Op::w_blk/b_blk, detail::QuantOp::w_blk)
// to a shared immutable vector; two plans whose layer weights are bytewise
// equal share the same physical block, and the block dies with its last plan.
//
// Thread-safety: a BlockTable is immutable after compile (same contract as
// the rest of CompiledPlan). WeightPool::intern_* is internally synchronized
// and may be called from concurrent compiles.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "runtime/lock_rank.hpp"
#include "tensor/shape.hpp"

namespace pit::runtime {

/// One immutable, refcounted weight block. The pointed-to vector never
/// changes after interning; sharing is plain shared_ptr refcounting.
template <typename T>
using SharedBlock = std::shared_ptr<const std::vector<T>>;

/// FNV-1a 64-bit over a byte range — stable, dependency-free content hash.
/// Collisions are survivable (the pool confirms with size + memcmp before
/// sharing); the hash only routes lookups to a bucket.
inline std::uint64_t hash_bytes(const void* data, std::size_t bytes,
                                std::uint64_t seed = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Dedup accounting a WeightPool keeps across all interns it has served.
struct WeightPoolStats {
  std::uint64_t lookups = 0;          // intern calls
  std::uint64_t hits = 0;             // calls answered with an existing block
  std::uint64_t bytes_requested = 0;  // sum of all interned block sizes
  std::uint64_t bytes_unique = 0;     // bytes of distinct blocks allocated

  /// Logical bytes over physical bytes; 1.0 when nothing was shared.
  double dedup_ratio() const {
    return bytes_unique == 0
               ? 1.0
               : static_cast<double>(bytes_requested) /
                     static_cast<double>(bytes_unique);
  }
};

/// Content-addressed intern table for weight blocks. Holds weak references
/// only: the pool never keeps a dead plan's weights alive, and an expired
/// entry is pruned on the next lookup that walks its bucket.
class WeightPool {
 public:
  SharedBlock<float> intern_f32(std::vector<float>&& block) {
    return intern(f32_, std::move(block));
  }

  SharedBlock<std::int8_t> intern_i8(std::vector<std::int8_t>&& block) {
    return intern(i8_, std::move(block));
  }

  WeightPoolStats stats() const {
    std::lock_guard lock(pool_lock_);
    return stats_;
  }

 private:
  template <typename T>
  using Bucket = std::vector<std::weak_ptr<const std::vector<T>>>;

  template <typename T>
  SharedBlock<T> intern(std::unordered_map<std::uint64_t, Bucket<T>>& table,
                        std::vector<T>&& block) {
    const std::size_t bytes = block.size() * sizeof(T);
    const std::uint64_t key = hash_bytes(block.data(), bytes);
    std::lock_guard lock(pool_lock_);
    stats_.lookups += 1;
    stats_.bytes_requested += bytes;
    Bucket<T>& bucket = table[key];
    for (std::size_t i = 0; i < bucket.size();) {
      if (SharedBlock<T> held = bucket[i].lock()) {
        if (held->size() == block.size() &&
            (bytes == 0 ||
             std::memcmp(held->data(), block.data(), bytes) == 0)) {
          stats_.hits += 1;
          return held;
        }
        ++i;
      } else {
        bucket[i] = bucket.back();  // prune the expired entry
        bucket.pop_back();
      }
    }
    auto fresh = std::make_shared<const std::vector<T>>(std::move(block));
    bucket.emplace_back(fresh);
    stats_.bytes_unique += bytes;
    return fresh;
  }

  mutable RankedMutex<LockRank::kWeightPool> pool_lock_;
  std::unordered_map<std::uint64_t, Bucket<float>> f32_;
  std::unordered_map<std::uint64_t, Bucket<std::int8_t>> i8_;
  WeightPoolStats stats_;
};

/// Ordered list of shared blocks owned by one plan. Ops address blocks by
/// the index `add()` returned; `data(blk)` is the hot-path accessor the
/// executors call (one indexed load + one pointer chase, no locking).
template <typename T>
class BlockTable {
 public:
  /// Appends a block, interning through `pool` when one is given. Returns
  /// the handle ops store in w_blk/b_blk.
  index_t add(std::vector<T>&& block, WeightPool* pool = nullptr) {
    SharedBlock<T> shared =
        pool != nullptr
            ? intern_via(*pool, std::move(block))
            : std::make_shared<const std::vector<T>>(std::move(block));
    blocks_.push_back(std::move(shared));
    return static_cast<index_t>(blocks_.size()) - 1;
  }

  /// Re-interns every block through `pool` — used at compile() time so
  /// blocks built incrementally during recording still deduplicate.
  void intern_all(WeightPool& pool) {
    for (SharedBlock<T>& blk : blocks_) {
      std::vector<T> copy = *blk;
      blk = intern_via(pool, std::move(copy));
    }
  }

  const T* data(index_t blk) const {
    return blocks_[static_cast<std::size_t>(blk)]->data();
  }

  index_t size(index_t blk) const {
    return static_cast<index_t>(
        blocks_[static_cast<std::size_t>(blk)]->size());
  }

  const SharedBlock<T>& block(index_t blk) const {
    return blocks_[static_cast<std::size_t>(blk)];
  }

  index_t count() const { return static_cast<index_t>(blocks_.size()); }

  /// Total logical elements across blocks (shared blocks counted once per
  /// reference — this is the per-plan logical footprint, not physical).
  std::size_t total_elems() const {
    std::size_t n = 0;
    for (const SharedBlock<T>& blk : blocks_) {
      n += blk->size();
    }
    return n;
  }

  /// Order-sensitive combined content hash — block order is part of the
  /// plan's identity, so [A,B] and [B,A] fingerprint differently.
  std::uint64_t content_hash() const {
    std::uint64_t h = 1469598103934665603ULL;
    for (const SharedBlock<T>& blk : blocks_) {
      const std::uint64_t size = blk->size();
      h = hash_bytes(&size, sizeof(size), h);
      h = hash_bytes(blk->data(), blk->size() * sizeof(T), h);
    }
    return h;
  }

 private:
  static SharedBlock<T> intern_via(WeightPool& pool, std::vector<T>&& block);

  std::vector<SharedBlock<T>> blocks_;
};

template <>
inline SharedBlock<float> BlockTable<float>::intern_via(
    WeightPool& pool, std::vector<float>&& block) {
  return pool.intern_f32(std::move(block));
}

template <>
inline SharedBlock<std::int8_t> BlockTable<std::int8_t>::intern_via(
    WeightPool& pool, std::vector<std::int8_t>&& block) {
  return pool.intern_i8(std::move(block));
}

}  // namespace pit::runtime
