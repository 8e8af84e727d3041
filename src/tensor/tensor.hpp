// Dense float32 tensor with reverse-mode autograd.
//
// Tensor is a cheap-to-copy handle (shared_ptr to TensorImpl). Operations
// are free functions (see ops.hpp) that build a define-by-run graph; calling
// backward() on a scalar tensor propagates gradients to every reachable
// tensor that has requires_grad() set.
#pragma once

#include <functional>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "tensor/random.hpp"
#include "tensor/shape.hpp"

namespace pit {

struct TensorImpl;
struct Node;

namespace detail {

/// Buffers smaller than this never enter the training-run recycler: glibc
/// serves them from its bins without touching the kernel.
inline constexpr std::size_t kRecycleMinBytes = std::size_t{16} << 10;
/// Most bytes one thread's recycler holds; a buffer freed past the cap
/// goes back to the heap.
inline constexpr std::size_t kRecycleMaxCachedBytes = std::size_t{64} << 20;

/// A cached block of exactly `bytes` bytes from this thread's open
/// BufferRecycleScope, or nullptr (no scope open, or no block that size).
void* recycler_take(std::size_t bytes) noexcept;
/// Caches `p` (from ::operator new(bytes)) in this thread's open scope;
/// false when no scope is open or the cap is reached, and the caller
/// frees it.
bool recycler_keep(void* p, std::size_t bytes) noexcept;
/// Bytes this thread's recycler holds right now (0 outside a scope).
std::size_t recycler_cached_bytes() noexcept;

class BufferRecycler;

}  // namespace detail

/// Allocator that default-initializes on container growth, so trivially
/// constructible elements (floats) are left uninitialized instead of being
/// zero-filled. Value construction (assign/fill/push_back with an argument)
/// still writes real values, so zeroing remains explicit where it matters.
/// This is what lets Tensor::empty() and batch assembly skip the redundant
/// fill pass on buffers the caller overwrites completely.
///
/// Inside a BufferRecycleScope, buffers of at least kRecycleMinBytes are
/// taken from and returned to the calling thread's recycler (exact-size
/// free lists), so a training step reuses the previous step's buffers
/// instead of faulting fresh pages in. Outside a scope it is std::allocator.
template <class T>
struct DefaultInitAllocator {
  // Recycled blocks come from plain ::operator new(bytes), which is what
  // std::allocator uses for every T that is not over-aligned.
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  using value_type = T;

  DefaultInitAllocator() noexcept = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    if (recyclable(n)) {
      if (void* p = detail::recycler_take(n * sizeof(T))) {
        return static_cast<T*>(p);
      }
    }
    return std::allocator<T>().allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (recyclable(n) && detail::recycler_keep(p, n * sizeof(T))) {
      return;
    }
    std::allocator<T>().deallocate(p, n);
  }

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;  // default-init: no-op for float
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const DefaultInitAllocator&,
                         const DefaultInitAllocator&) {
    return true;
  }

 private:
  static bool recyclable(std::size_t n) noexcept {
    return n >= detail::kRecycleMinBytes / sizeof(T);
  }
};

/// Backing buffer of every tensor: float vector without implicit zero-fill.
using FloatBuffer = std::vector<float, DefaultInitAllocator<float>>;

/// Handle to a dense row-major float tensor, optionally tracked by autograd.
class Tensor {
 public:
  /// Default-constructed tensors are "undefined"; any use other than
  /// defined() throws.
  Tensor() = default;

  // ---- Factories -------------------------------------------------------
  static Tensor zeros(const Shape& shape);
  static Tensor ones(const Shape& shape);
  static Tensor full(const Shape& shape, float value);
  /// Scalar (rank-0) tensor.
  static Tensor scalar(float value);
  /// Allocated but NOT initialized — the caller must overwrite every
  /// element before reading. The contents are unspecified, not zeros:
  /// inside a BufferRecycleScope they may be a recycled buffer's stale
  /// data (NaN in Debug and ASan builds). The no-tape inference runtime
  /// and batch assembly use this to skip the zero-fill pass of zeros().
  static Tensor empty(const Shape& shape);
  /// Copies `values`; numel must match the shape.
  static Tensor from_vector(const std::vector<float>& values,
                            const Shape& shape);
  /// Takes ownership of `values` (no copy); numel must match the shape.
  static Tensor from_buffer(FloatBuffer values, const Shape& shape);
  /// I.i.d. normal entries with the given standard deviation.
  static Tensor randn(const Shape& shape, RandomEngine& rng,
                      float stddev = 1.0F);
  /// I.i.d. uniform entries in [lo, hi).
  static Tensor uniform(const Shape& shape, float lo, float hi,
                        RandomEngine& rng);

  // ---- Introspection ---------------------------------------------------
  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  int rank() const { return shape().rank(); }
  index_t dim(int i) const { return shape().dim(i); }
  index_t numel() const { return shape().numel(); }

  float* data();
  const float* data() const;
  std::span<float> span();
  std::span<const float> span() const;

  /// Value of a rank-0 (or single-element) tensor.
  float item() const;
  /// Element accessor for tests / debugging (row-major index arithmetic).
  float at(std::initializer_list<index_t> idx) const;

  /// Deep copy of the data (no autograd history).
  Tensor clone() const;
  /// Same storage, detached from the autograd graph.
  Tensor detach() const;
  /// Copy with a new shape (same numel). Differentiable.
  Tensor reshape(const Shape& new_shape) const;

  std::string to_string() const;

  // ---- Autograd --------------------------------------------------------
  Tensor& set_requires_grad(bool value);
  bool requires_grad() const;
  /// True if backward() through this tensor can reach a parameter.
  bool tracks_grad() const;

  /// Gradient accumulated by the last backward(); zeros if never touched.
  Tensor grad() const;
  /// Raw pointer into the gradient buffer (allocated on demand).
  float* grad_data();
  /// Clears the gradient buffer (keeps the allocation).
  void zero_grad();

  /// Reverse-mode sweep from this (scalar) tensor.
  void backward();

  // ---- Internal --------------------------------------------------------
  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// Backing storage for Tensor. Public members: this is an internal
/// aggregate manipulated by the op layer, not a user-facing invariant-holder.
struct TensorImpl {
  Shape shape;
  FloatBuffer data;
  FloatBuffer grad;  // empty until first accumulation
  bool requires_grad = false;
  std::shared_ptr<Node> grad_fn;  // null for leaves
};

/// RAII guard that disables gradient tracking on the current thread
/// (used for evaluation / inference passes).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// True when ops should record autograd nodes on this thread.
bool grad_mode_enabled();

/// RAII scope that turns on the calling thread's buffer recycler (see
/// DefaultInitAllocator) for one training run. Internal: the trainers
/// (core::PitTrainer::run, core::train_supervised,
/// nas::ProxylessTrainer::run) open one. Scopes nest;
/// the outermost one owns the cache and frees every buffer it still holds
/// when it closes. A buffer that outlives the scope is freed normally.
/// Other threads, serving threads among them, never cache.
class BufferRecycleScope {
 public:
  BufferRecycleScope();
  ~BufferRecycleScope();
  BufferRecycleScope(const BufferRecycleScope&) = delete;
  BufferRecycleScope& operator=(const BufferRecycleScope&) = delete;

 private:
  std::unique_ptr<detail::BufferRecycler> owned_;  // null when nested
};

}  // namespace pit
