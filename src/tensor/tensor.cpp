#include "tensor/tensor.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "tensor/asan.hpp"
#include "tensor/autograd.hpp"
#include "tensor/error.hpp"

namespace pit {

namespace detail {

/// One training run's cache of freed buffers, owned by the outermost
/// BufferRecycleScope on its thread. Cached blocks are ASan-poisoned until
/// reissued, and in Debug and ASan builds a reissued block is filled with
/// NaN, so an op that reads a Tensor::empty() buffer before writing it
/// reads NaN instead of the previous batch's values.
class BufferRecycler {
 public:
  BufferRecycler() = default;
  BufferRecycler(const BufferRecycler&) = delete;
  BufferRecycler& operator=(const BufferRecycler&) = delete;
  ~BufferRecycler() {
    for (auto& [bytes, blocks] : free_) {
      for (void* p : blocks) {
        asan::unpoison(p, bytes);
        ::operator delete(p, bytes);
      }
    }
  }

  void* take(std::size_t bytes) noexcept {
    auto it = free_.find(bytes);
    if (it == free_.end() || it->second.empty()) {
      return nullptr;
    }
    void* p = it->second.back();
    it->second.pop_back();
    cached_bytes_ -= bytes;
    asan::unpoison(p, bytes);
#if PIT_ASAN || !defined(NDEBUG)
    std::memset(p, 0xFF, bytes);  // all-ones bit pattern: a float NaN
#endif
    return p;
  }

  bool keep(void* p, std::size_t bytes) noexcept {
    if (cached_bytes_ + bytes > kRecycleMaxCachedBytes) {
      return false;
    }
    try {
      free_[bytes].push_back(p);
    } catch (...) {  // no room for the list entry: free the block instead
      return false;
    }
    cached_bytes_ += bytes;
    asan::poison(p, bytes);
    return true;
  }

  std::size_t cached_bytes() const noexcept { return cached_bytes_; }

 private:
  std::unordered_map<std::size_t, std::vector<void*>> free_;
  std::size_t cached_bytes_ = 0;
};

namespace {
thread_local BufferRecycler* g_recycler = nullptr;
}  // namespace

void* recycler_take(std::size_t bytes) noexcept {
  return g_recycler != nullptr ? g_recycler->take(bytes) : nullptr;
}

bool recycler_keep(void* p, std::size_t bytes) noexcept {
  return g_recycler != nullptr && g_recycler->keep(p, bytes);
}

std::size_t recycler_cached_bytes() noexcept {
  return g_recycler != nullptr ? g_recycler->cached_bytes() : 0;
}

}  // namespace detail

BufferRecycleScope::BufferRecycleScope() {
  if (detail::g_recycler == nullptr) {
    owned_ = std::make_unique<detail::BufferRecycler>();
    detail::g_recycler = owned_.get();
  }
}

BufferRecycleScope::~BufferRecycleScope() {
  if (owned_ != nullptr) {
    detail::g_recycler = nullptr;
  }
}

namespace {

thread_local bool g_grad_mode = true;

std::shared_ptr<TensorImpl> make_impl(const Shape& shape, float fill) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data.assign(static_cast<std::size_t>(shape.numel()), fill);
  return impl;
}

}  // namespace

bool grad_mode_enabled() {
  return g_grad_mode;
}

NoGradGuard::NoGradGuard() : previous_(g_grad_mode) {
  g_grad_mode = false;
}

NoGradGuard::~NoGradGuard() {
  g_grad_mode = previous_;
}

Tensor Tensor::zeros(const Shape& shape) {
  return Tensor(make_impl(shape, 0.0F));
}

Tensor Tensor::ones(const Shape& shape) {
  return Tensor(make_impl(shape, 1.0F));
}

Tensor Tensor::full(const Shape& shape, float value) {
  return Tensor(make_impl(shape, value));
}

Tensor Tensor::scalar(float value) {
  return full(Shape{}, value);
}

Tensor Tensor::empty(const Shape& shape) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data.resize(static_cast<std::size_t>(shape.numel()));  // default-init
  return Tensor(std::move(impl));
}

Tensor Tensor::from_vector(const std::vector<float>& values,
                           const Shape& shape) {
  PIT_CHECK(static_cast<index_t>(values.size()) == shape.numel(),
            "from_vector: " << values.size() << " values for shape "
                            << shape.to_string());
  return from_buffer(FloatBuffer(values.begin(), values.end()), shape);
}

Tensor Tensor::from_buffer(FloatBuffer values, const Shape& shape) {
  PIT_CHECK(static_cast<index_t>(values.size()) == shape.numel(),
            "from_buffer: " << values.size() << " values for shape "
                            << shape.to_string());
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data = std::move(values);
  return Tensor(std::move(impl));
}

Tensor Tensor::randn(const Shape& shape, RandomEngine& rng, float stddev) {
  Tensor t = empty(shape);
  for (float& v : t.span()) {
    v = static_cast<float>(rng.normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::uniform(const Shape& shape, float lo, float hi,
                       RandomEngine& rng) {
  Tensor t = empty(shape);
  for (float& v : t.span()) {
    v = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

const Shape& Tensor::shape() const {
  PIT_CHECK(defined(), "use of undefined tensor");
  return impl_->shape;
}

float* Tensor::data() {
  PIT_CHECK(defined(), "use of undefined tensor");
  return impl_->data.data();
}

const float* Tensor::data() const {
  PIT_CHECK(defined(), "use of undefined tensor");
  return impl_->data.data();
}

std::span<float> Tensor::span() {
  PIT_CHECK(defined(), "use of undefined tensor");
  return {impl_->data.data(), impl_->data.size()};
}

std::span<const float> Tensor::span() const {
  PIT_CHECK(defined(), "use of undefined tensor");
  return {impl_->data.data(), impl_->data.size()};
}

float Tensor::item() const {
  PIT_CHECK(numel() == 1,
            "item() on tensor with shape " << shape().to_string());
  return impl_->data[0];
}

float Tensor::at(std::initializer_list<index_t> idx) const {
  const Shape& s = shape();
  PIT_CHECK(static_cast<int>(idx.size()) == s.rank(),
            "at(): " << idx.size() << " indices for rank " << s.rank());
  index_t flat = 0;
  int d = 0;
  for (const index_t i : idx) {
    PIT_CHECK(i >= 0 && i < s.dim(d),
              "at(): index " << i << " out of range in dim " << d << " of "
                             << s.to_string());
    flat = flat * s.dim(d) + i;
    ++d;
  }
  return impl_->data[static_cast<std::size_t>(flat)];
}

Tensor Tensor::clone() const {
  PIT_CHECK(defined(), "clone of undefined tensor");
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->data = impl_->data;
  return Tensor(std::move(impl));
}

Tensor Tensor::detach() const {
  PIT_CHECK(defined(), "detach of undefined tensor");
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->data = impl_->data;  // copy; detached tensors are independent values
  return Tensor(std::move(impl));
}

Tensor Tensor::reshape(const Shape& new_shape) const {
  PIT_CHECK(defined(), "reshape of undefined tensor");
  PIT_CHECK(new_shape.numel() == numel(),
            "reshape: numel mismatch " << shape().to_string() << " -> "
                                       << new_shape.to_string());
  Tensor out = Tensor::from_buffer(
      FloatBuffer(impl_->data.begin(), impl_->data.end()), new_shape);
  const Tensor self = *this;
  return make_op_output(
      std::move(out), {self}, "reshape", [self](TensorImpl& o) {
        accumulate_grad(*self.impl(), {o.grad.data(), o.grad.size()});
      });
}

std::string Tensor::to_string() const {
  if (!defined()) {
    return "Tensor(undefined)";
  }
  std::ostringstream os;
  os << "Tensor" << shape().to_string() << " [";
  const auto view = span();
  const std::size_t preview = std::min<std::size_t>(view.size(), 8);
  for (std::size_t i = 0; i < preview; ++i) {
    if (i > 0) {
      os << ", ";
    }
    os << view[i];
  }
  if (view.size() > preview) {
    os << ", ...";
  }
  os << "]";
  return os.str();
}

Tensor& Tensor::set_requires_grad(bool value) {
  PIT_CHECK(defined(), "set_requires_grad on undefined tensor");
  impl_->requires_grad = value;
  return *this;
}

bool Tensor::requires_grad() const {
  PIT_CHECK(defined(), "requires_grad on undefined tensor");
  return impl_->requires_grad;
}

bool Tensor::tracks_grad() const {
  PIT_CHECK(defined(), "tracks_grad on undefined tensor");
  return impl_->requires_grad || impl_->grad_fn != nullptr;
}

Tensor Tensor::grad() const {
  PIT_CHECK(defined(), "grad on undefined tensor");
  if (impl_->grad.empty()) {
    return Tensor::zeros(impl_->shape);
  }
  return Tensor::from_buffer(
      FloatBuffer(impl_->grad.begin(), impl_->grad.end()), impl_->shape);
}

float* Tensor::grad_data() {
  PIT_CHECK(defined(), "grad_data on undefined tensor");
  return grad_span(*impl_).data();
}

void Tensor::zero_grad() {
  PIT_CHECK(defined(), "zero_grad on undefined tensor");
  std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0F);
}

void Tensor::backward() {
  run_backward(*this);
}

}  // namespace pit
