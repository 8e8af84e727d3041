// Blocked engine registration: the per-level fp32 kernel variants of
// blocked_impl.cpp, registered at the host's widest ISA level.
//
// CMake builds blocked_impl.cpp once at the portable baseline and, on
// x86-64 hosts whose compiler supports the flags, again at the
// x86-64-v3 (AVX2+FMA) and x86-64-v4 (AVX-512) micro-architecture levels
// (PIT_KERNELS_HAVE_V3 / PIT_KERNELS_HAVE_V4). The widest level the
// running CPU supports wins, checked once, in register_kernels — the only
// fp32 ISA ladder.
#include "nn/kernels/registry.hpp"

namespace pit::nn::kernels::blocked {

#define PIT_DECLARE_PACKED_K(K)                                             \
  void conv_forward_packed_k##K(const float* x, const float* wp,            \
                                const float* bias, float* y,                \
                                const ConvDims& d, index_t x_stride,        \
                                index_t y_stride, bool x_padded,            \
                                bool relu);
#define PIT_DECLARE_STEP_K(K)                                               \
  void conv_step_k##K(const float* ring, const float* wp,                   \
                      const float* bias, float* y, index_t c_in,            \
                      index_t c_out, index_t k, index_t dilation,           \
                      index_t span, index_t pos, bool relu);

#define PIT_DECLARE_BLOCKED_VARIANT(ns)                                     \
  namespace ns {                                                            \
  void conv_forward(const float* x, const float* w, const float* bias,      \
                    float* y, const ConvDims& d);                           \
  void conv_backward_input(const float* dy, const float* w, float* dx,      \
                           const ConvDims& d);                              \
  void conv_backward_weight(const float* dy, const float* x, float* dw,     \
                            const ConvDims& d);                             \
  void conv_forward_packed(const float* x, const float* wp,                 \
                           const float* bias, float* y, const ConvDims& d,  \
                           index_t x_stride, index_t y_stride,              \
                           bool x_padded, bool relu);                       \
  void conv_step(const float* ring, const float* wp, const float* bias,     \
                 float* y, index_t c_in, index_t c_out, index_t k,          \
                 index_t dilation, index_t span, index_t pos, bool relu);   \
  void linear_forward(const float* x, const float* w, const float* bias,    \
                      float* y, index_t n, index_t f, index_t o,            \
                      bool relu);                                           \
  PIT_FOREACH_SPEC_K(PIT_DECLARE_PACKED_K)                                  \
  PIT_FOREACH_SPEC_K(PIT_DECLARE_STEP_K)                                    \
  }

PIT_DECLARE_BLOCKED_VARIANT(base)
#ifdef PIT_KERNELS_HAVE_V3
PIT_DECLARE_BLOCKED_VARIANT(v3)
#endif
#ifdef PIT_KERNELS_HAVE_V4
PIT_DECLARE_BLOCKED_VARIANT(v4)
#endif

#undef PIT_DECLARE_BLOCKED_VARIANT
#undef PIT_DECLARE_PACKED_K
#undef PIT_DECLARE_STEP_K

// Resolves the ISA level once and registers that level's training kernels
// (forward, backward-input, backward-weight), its generic inference
// kernels, and the k-specialized instantiations.
// Specialized packed-conv/step variants additionally require a
// quad-aligned c_in so the k unroll never meets a ragged channel tail.
void register_kernels(Registry& r) {
#define PIT_REG_BLOCKED_K(ns, isa, K)                                       \
  r.add_conv_packed_f32(&ns::conv_forward_packed_k##K, "k" #K, isa, K,      \
                        true);                                              \
  r.add_conv_step_f32(&ns::conv_step_k##K, "k" #K, isa, K, true);
#define PIT_REG_BLOCKED_NS(ns, isa)                                         \
  do {                                                                      \
    r.add_conv_train_f32(&ns::conv_forward, &ns::conv_backward_input,       \
                         &ns::conv_backward_weight, isa);                   \
    r.add_conv_packed_f32(&ns::conv_forward_packed, "generic", isa, 0,      \
                          false);                                           \
    r.add_conv_step_f32(&ns::conv_step, "generic", isa, 0, false);          \
    r.add_linear_f32(&ns::linear_forward, isa);                             \
    PIT_REG_BLOCKED_K(ns, isa, 1)                                           \
    PIT_REG_BLOCKED_K(ns, isa, 2)                                           \
    PIT_REG_BLOCKED_K(ns, isa, 3)                                           \
    PIT_REG_BLOCKED_K(ns, isa, 4)                                           \
    PIT_REG_BLOCKED_K(ns, isa, 5)                                           \
    PIT_REG_BLOCKED_K(ns, isa, 6)                                           \
    PIT_REG_BLOCKED_K(ns, isa, 7)                                           \
    PIT_REG_BLOCKED_K(ns, isa, 8)                                           \
    PIT_REG_BLOCKED_K(ns, isa, 9)                                           \
  } while (false)
#if defined(PIT_KERNELS_HAVE_V3) || defined(PIT_KERNELS_HAVE_V4)
  __builtin_cpu_init();
#endif
#ifdef PIT_KERNELS_HAVE_V4
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    PIT_REG_BLOCKED_NS(v4, "v4");
    return;
  }
#endif
#ifdef PIT_KERNELS_HAVE_V3
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    PIT_REG_BLOCKED_NS(v3, "v3");
    return;
  }
#endif
  PIT_REG_BLOCKED_NS(base, "base");
#undef PIT_REG_BLOCKED_NS
#undef PIT_REG_BLOCKED_K
}

}  // namespace pit::nn::kernels::blocked
