#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "tensor/asan.hpp"
#include "tensor/error.hpp"
#include "tensor/ops.hpp"

namespace pit {
namespace {

TEST(Tensor, DefaultIsUndefined) {
  const Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_THROW(t.shape(), Error);
}

TEST(Tensor, ZerosOnesFull) {
  Tensor z = Tensor::zeros(Shape{2, 3});
  Tensor o = Tensor::ones(Shape{2, 3});
  Tensor f = Tensor::full(Shape{2, 3}, 2.5F);
  EXPECT_EQ(z.numel(), 6);
  for (index_t i = 0; i < 6; ++i) {
    EXPECT_EQ(z.data()[i], 0.0F);
    EXPECT_EQ(o.data()[i], 1.0F);
    EXPECT_EQ(f.data()[i], 2.5F);
  }
}

TEST(Tensor, ScalarRoundTrip) {
  Tensor s = Tensor::scalar(3.25F);
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.numel(), 1);
  EXPECT_FLOAT_EQ(s.item(), 3.25F);
}

TEST(Tensor, ItemOnNonScalarThrows) {
  Tensor t = Tensor::zeros(Shape{2});
  EXPECT_THROW(t.item(), Error);
}

TEST(Tensor, FromVectorChecksSize) {
  EXPECT_NO_THROW(Tensor::from_vector({1, 2, 3, 4, 5, 6}, Shape{2, 3}));
  EXPECT_THROW(Tensor::from_vector({1, 2, 3}, Shape{2, 3}), Error);
}

TEST(Tensor, AtUsesRowMajorOrder) {
  Tensor t = Tensor::from_vector({1, 2, 3, 4, 5, 6}, Shape{2, 3});
  EXPECT_FLOAT_EQ(t.at({0, 0}), 1.0F);
  EXPECT_FLOAT_EQ(t.at({0, 2}), 3.0F);
  EXPECT_FLOAT_EQ(t.at({1, 0}), 4.0F);
  EXPECT_FLOAT_EQ(t.at({1, 2}), 6.0F);
  EXPECT_THROW(t.at({2, 0}), Error);
  EXPECT_THROW(t.at({0}), Error);
}

TEST(Tensor, HandleCopySharesStorage) {
  Tensor a = Tensor::zeros(Shape{3});
  Tensor b = a;  // NOLINT: intentional handle copy
  b.data()[0] = 7.0F;
  EXPECT_FLOAT_EQ(a.data()[0], 7.0F);
}

TEST(Tensor, CloneIsDeepCopy) {
  Tensor a = Tensor::ones(Shape{3});
  Tensor b = a.clone();
  b.data()[0] = 5.0F;
  EXPECT_FLOAT_EQ(a.data()[0], 1.0F);
}

TEST(Tensor, RandnIsDeterministicPerSeed) {
  RandomEngine rng1(99);
  RandomEngine rng2(99);
  Tensor a = Tensor::randn(Shape{16}, rng1);
  Tensor b = Tensor::randn(Shape{16}, rng2);
  for (index_t i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(Tensor, UniformRespectsBounds) {
  RandomEngine rng(5);
  Tensor t = Tensor::uniform(Shape{1000}, -2.0F, 3.0F, rng);
  for (const float v : t.span()) {
    EXPECT_GE(v, -2.0F);
    EXPECT_LT(v, 3.0F);
  }
}

TEST(Tensor, ReshapePreservesDataAndChecksNumel) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, Shape{2, 3});
  Tensor b = a.reshape(Shape{3, 2});
  EXPECT_EQ(b.shape(), Shape({3, 2}));
  EXPECT_FLOAT_EQ(b.at({0, 1}), 2.0F);
  EXPECT_FLOAT_EQ(b.at({2, 1}), 6.0F);
  EXPECT_THROW(a.reshape(Shape{4}), Error);
}

TEST(Tensor, ReshapeBackpropagates) {
  Tensor a = Tensor::ones(Shape{2, 3}).set_requires_grad(true);
  Tensor b = a.reshape(Shape{6});
  Tensor s = sum(b);
  s.backward();
  for (index_t i = 0; i < 6; ++i) {
    EXPECT_FLOAT_EQ(a.grad().data()[i], 1.0F);
  }
}

TEST(Tensor, DetachBreaksGraph) {
  Tensor a = Tensor::ones(Shape{2}).set_requires_grad(true);
  Tensor b = mul_scalar(a, 3.0F);
  Tensor c = b.detach();
  EXPECT_FALSE(c.requires_grad());
  EXPECT_FALSE(c.tracks_grad());
  // Backward through the detached path must not reach `a`.
  Tensor s = sum(c);
  s.backward();
  EXPECT_FLOAT_EQ(a.grad().data()[0], 0.0F);
}

TEST(Tensor, GradDefaultsToZeros) {
  Tensor a = Tensor::ones(Shape{4}).set_requires_grad(true);
  Tensor g = a.grad();
  EXPECT_EQ(g.shape(), a.shape());
  for (const float v : g.span()) {
    EXPECT_FLOAT_EQ(v, 0.0F);
  }
}

TEST(Tensor, ZeroGradClears) {
  Tensor a = Tensor::ones(Shape{3}).set_requires_grad(true);
  Tensor s = sum(a);
  s.backward();
  EXPECT_FLOAT_EQ(a.grad().data()[0], 1.0F);
  a.zero_grad();
  EXPECT_FLOAT_EQ(a.grad().data()[0], 0.0F);
}

TEST(Tensor, ToStringMentionsShape) {
  Tensor a = Tensor::zeros(Shape{2, 2});
  EXPECT_NE(a.to_string().find("(2, 2)"), std::string::npos);
  EXPECT_EQ(Tensor().to_string(), "Tensor(undefined)");
}

// ---- Training-run buffer recycler ----------------------------------------

// Large enough to be recycled: 8192 floats = 32 KiB.
constexpr std::size_t kBig = 8192;
constexpr std::size_t kBigBytes = kBig * sizeof(float);

/// A buffer of `n` floats that the caller promises not to read.
FloatBuffer uninit(std::size_t n) {
  FloatBuffer b;
  b.resize(n);
  return b;
}

TEST(BufferRecycler, SameSizeAllocationInAScopeReusesTheFreedBuffer) {
  const BufferRecycleScope scope;
  const float* first = nullptr;
  {
    const Tensor t = Tensor::empty(Shape{64, 128});
    first = t.data();
  }
  EXPECT_EQ(detail::recycler_cached_bytes(), kBigBytes);
  const FloatBuffer other = uninit(kBig + 1);  // another size: a fresh block
  EXPECT_NE(other.data(), first);
  const Tensor again = Tensor::zeros(Shape{kBig});
  EXPECT_EQ(again.data(), first);
  EXPECT_EQ(detail::recycler_cached_bytes(), 0U);
  for (const float v : again.span()) {
    ASSERT_EQ(v, 0.0F);  // value construction still writes every element
  }
}

TEST(BufferRecycler, NothingIsCachedOutsideAScopeOrOnAnotherThread) {
  { const FloatBuffer b = uninit(kBig); }
  EXPECT_EQ(detail::recycler_cached_bytes(), 0U);

  const BufferRecycleScope scope;
  const std::size_t below_floor = detail::kRecycleMinBytes / sizeof(float) - 1;
  { const FloatBuffer small = uninit(below_floor); }
  EXPECT_EQ(detail::recycler_cached_bytes(), 0U);  // below the floor

  std::size_t other_thread_cached = 1;
  std::thread worker([&] {
    { const FloatBuffer b = uninit(kBig); }
    other_thread_cached = detail::recycler_cached_bytes();
  });
  worker.join();
  EXPECT_EQ(other_thread_cached, 0U);
  EXPECT_EQ(detail::recycler_cached_bytes(), 0U);

  // A buffer made in the scope and freed on a thread without one goes
  // straight back to the heap.
  FloatBuffer handed_over = uninit(kBig);
  std::thread consumer([b = std::move(handed_over)]() mutable {
    FloatBuffer().swap(b);
  });
  consumer.join();
  EXPECT_EQ(detail::recycler_cached_bytes(), 0U);
}

TEST(BufferRecycler, NestedScopesShareTheOutermostCache) {
  {
    const BufferRecycleScope outer;
    {
      const BufferRecycleScope inner;
      { const FloatBuffer b = uninit(kBig); }
      EXPECT_EQ(detail::recycler_cached_bytes(), kBigBytes);
    }
    // The inner scope owned nothing: the outer one still holds the buffer.
    EXPECT_EQ(detail::recycler_cached_bytes(), kBigBytes);
    const FloatBuffer reused = uninit(kBig);
    EXPECT_EQ(detail::recycler_cached_bytes(), 0U);
  }
  EXPECT_EQ(detail::recycler_cached_bytes(), 0U);
  // A fresh scope starts with an empty cache.
  const BufferRecycleScope again;
  EXPECT_EQ(detail::recycler_cached_bytes(), 0U);
}

TEST(BufferRecycler, CapBoundsTheCachedBytes) {
  // Two buffers of just over half the cap: only the first fits.
  const std::size_t n = detail::kRecycleMaxCachedBytes / 2 / sizeof(float) + 1;
  const BufferRecycleScope scope;
  {
    const FloatBuffer a = uninit(n);
    const FloatBuffer b = uninit(n);
  }
  EXPECT_EQ(detail::recycler_cached_bytes(), n * sizeof(float));
  EXPECT_LE(detail::recycler_cached_bytes(), detail::kRecycleMaxCachedBytes);
}

TEST(BufferRecycler, BuffersThatOutliveTheirScopeAreFreedCleanly) {
  // Run under LeakSanitizer in the ASan job: each buffer below must reach
  // the heap exactly once, whichever side of the scope frees it.
  FloatBuffer made_inside;
  Tensor tensor_inside;
  FloatBuffer made_before = uninit(kBig);
  {
    const BufferRecycleScope scope;
    made_inside = uninit(kBig * 2);
    tensor_inside = Tensor::ones(Shape{kBig * 3});
    FloatBuffer().swap(made_before);  // cached, then released by the scope
    EXPECT_EQ(detail::recycler_cached_bytes(), kBigBytes);
  }
  EXPECT_EQ(detail::recycler_cached_bytes(), 0U);
  EXPECT_EQ(tensor_inside.data()[kBig * 3 - 1], 1.0F);
  FloatBuffer().swap(made_inside);  // plain std::allocator free
  tensor_inside = Tensor();
}

TEST(BufferRecycler, ReusedBufferIsNaNInCheckedBuilds) {
#if PIT_ASAN || !defined(NDEBUG)
  const BufferRecycleScope scope;
  {
    FloatBuffer b(kBig, 1.0F);
  }
  const Tensor t = Tensor::empty(Shape{kBig});
  for (const float v : t.span()) {
    ASSERT_TRUE(std::isnan(v));
  }
#else
  GTEST_SKIP() << "Release build: reused buffers keep their stale values";
#endif
}

#if PIT_ASAN
// A buffer sitting in the recycler stays mapped, so a stale pointer into
// it would read the next batch's data silently. Poisoning makes the read
// die at the faulting instruction instead.
TEST(BufferRecyclerDeath, ReadingACachedBufferIsAnAsanReport) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        const BufferRecycleScope scope;
        const float* stale = nullptr;
        {
          const FloatBuffer b(kBig, 1.0F);
          stale = b.data();
        }
        volatile float sink = stale[kBig / 2];
        (void)sink;
      },
      "AddressSanitizer");
}
#endif

}  // namespace
}  // namespace pit
