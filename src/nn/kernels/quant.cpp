// int8 kernel registration: the per-level variants of quant_impl.cpp,
// registered at the host's widest ISA level (the only i8 ISA ladder), plus
// the (ISA-independent) weight packer.
//
// CMake builds quant_impl.cpp at the portable baseline and, where the
// compiler supports the flags, again at x86-64-v3, x86-64-v4, and
// x86-64-v4 + AVX512-VNNI (PIT_KERNELS_HAVE_V3 / _V4 / _VNNI). The VNNI
// variant is the one that actually outruns the fp32 tiles (vpdpbusd does
// 64 int8 MACs per instruction); the others exist so every host executes
// the same numerics at its widest ISA.
#include <algorithm>

#include "nn/kernels/registry.hpp"

namespace pit::nn::kernels {

namespace quant {

#define PIT_DECLARE_QCONV_K(K)                                              \
  void conv_forward_packed_i8_k##K(                                         \
      const std::uint8_t* x, const std::int8_t* wp, const float* m,         \
      const float* b, std::uint8_t* y_q, float* y_f, const ConvDims& d,     \
      index_t x_stride, index_t y_stride, bool relu, int out_lo);
#define PIT_DECLARE_QSTEP_K(K)                                              \
  void conv_step_i8_k##K(const std::uint8_t* ring, const std::int8_t* wp,   \
                         const float* m, const float* b,                    \
                         std::uint8_t* y_q, float* y_f, index_t c_in,       \
                         index_t c_out, index_t k, index_t dilation,        \
                         index_t span, index_t pos, bool relu, int out_lo);

#define PIT_DECLARE_QUANT_VARIANT(ns)                                       \
  namespace ns {                                                            \
  void conv_forward_packed_i8(const std::uint8_t* x, const std::int8_t* wp, \
                              const float* m, const float* b,               \
                              std::uint8_t* y_q, float* y_f,                \
                              const ConvDims& d, index_t x_stride,          \
                              index_t y_stride, bool relu, int out_lo);     \
  void add_forward_i8(const std::uint8_t* a, const std::uint8_t* b,         \
                      std::uint8_t* y, index_t rows, index_t steps,         \
                      index_t a_stride, index_t b_stride, index_t y_stride, \
                      float a_mul, float b_mul, float c_add, int out_lo);   \
  void quantize_interleave_i8(const float* in, std::uint8_t* out,           \
                              index_t n, index_t channels, index_t steps,   \
                              index_t lead, index_t stride,                 \
                              float inv_scale, int zp);                     \
  void conv_step_i8(const std::uint8_t* ring, const std::int8_t* wp,        \
                    const float* m, const float* b, std::uint8_t* y_q,      \
                    float* y_f, index_t c_in, index_t c_out, index_t k,     \
                    index_t dilation, index_t span, index_t pos,            \
                    bool relu, int out_lo);                                 \
  PIT_FOREACH_SPEC_K(PIT_DECLARE_QCONV_K)                                   \
  PIT_FOREACH_SPEC_K(PIT_DECLARE_QSTEP_K)                                   \
  }

PIT_DECLARE_QUANT_VARIANT(base)
#ifdef PIT_KERNELS_HAVE_V3
PIT_DECLARE_QUANT_VARIANT(v3)
#endif
#ifdef PIT_KERNELS_HAVE_V4
PIT_DECLARE_QUANT_VARIANT(v4)
#endif
#ifdef PIT_KERNELS_HAVE_VNNI
PIT_DECLARE_QUANT_VARIANT(vnni)
#endif

#undef PIT_DECLARE_QUANT_VARIANT
#undef PIT_DECLARE_QCONV_K
#undef PIT_DECLARE_QSTEP_K

// Resolves the ISA level once (including the VNNI tier) and registers
// that level's generic i8 kernels plus the k-specialized instantiations. i8 specialization keys on k alone — the
// C4-interleaved layout already pads ragged channel quads.
void register_kernels(Registry& r) {
#define PIT_REG_QUANT_K(ns, isa, K)                                         \
  r.add_conv_packed_i8(&ns::conv_forward_packed_i8_k##K, "k" #K, isa, K);   \
  r.add_conv_step_i8(&ns::conv_step_i8_k##K, "k" #K, isa, K);
#define PIT_REG_QUANT_NS(ns, isa)                                           \
  do {                                                                      \
    r.add_conv_packed_i8(&ns::conv_forward_packed_i8, "generic", isa, 0);   \
    r.add_conv_step_i8(&ns::conv_step_i8, "generic", isa, 0);               \
    r.add_add_i8(&ns::add_forward_i8, isa);                                 \
    r.add_stage_i8(&ns::quantize_interleave_i8, isa);                       \
    PIT_REG_QUANT_K(ns, isa, 1)                                             \
    PIT_REG_QUANT_K(ns, isa, 2)                                             \
    PIT_REG_QUANT_K(ns, isa, 3)                                             \
    PIT_REG_QUANT_K(ns, isa, 4)                                             \
    PIT_REG_QUANT_K(ns, isa, 5)                                             \
    PIT_REG_QUANT_K(ns, isa, 6)                                             \
    PIT_REG_QUANT_K(ns, isa, 7)                                             \
    PIT_REG_QUANT_K(ns, isa, 8)                                             \
    PIT_REG_QUANT_K(ns, isa, 9)                                             \
  } while (false)
#if defined(PIT_KERNELS_HAVE_V3) || defined(PIT_KERNELS_HAVE_V4) || \
    defined(PIT_KERNELS_HAVE_VNNI)
  __builtin_cpu_init();
#endif
#ifdef PIT_KERNELS_HAVE_VNNI
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512vnni")) {
    PIT_REG_QUANT_NS(vnni, "vnni");
    return;
  }
#endif
#ifdef PIT_KERNELS_HAVE_V4
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    PIT_REG_QUANT_NS(v4, "v4");
    return;
  }
#endif
#ifdef PIT_KERNELS_HAVE_V3
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    PIT_REG_QUANT_NS(v3, "v3");
    return;
  }
#endif
  PIT_REG_QUANT_NS(base, "base");
#undef PIT_REG_QUANT_NS
#undef PIT_REG_QUANT_K
}

}  // namespace quant

index_t packed_weight_bytes_i8(const ConvDims& d) {
  const index_t co_round = (d.c_out + kQuantCo - 1) / kQuantCo * kQuantCo;
  return quant_groups(d.c_in) * d.k * co_round * kQuantCiGroup;
}

void pack_conv_weight_i8(const std::int8_t* w, const ConvDims& d,
                         std::int8_t* out) {
  // (co, ci, i) row-major -> wp[((ci/4 * k + i) * co_round + co) * 4 +
  // ci%4], zero-padded in both the quad lanes (ci) and the co tile so a
  // register tile always reads kQuantCo x kQuantCiGroup valid bytes.
  const index_t co_round = (d.c_out + kQuantCo - 1) / kQuantCo * kQuantCo;
  std::fill(out, out + packed_weight_bytes_i8(d), std::int8_t{0});
  for (index_t co = 0; co < d.c_out; ++co) {
    for (index_t ci = 0; ci < d.c_in; ++ci) {
      for (index_t i = 0; i < d.k; ++i) {
        out[(((ci / kQuantCiGroup) * d.k + i) * co_round + co) *
                kQuantCiGroup +
            ci % kQuantCiGroup] = w[(co * d.c_in + ci) * d.k + i];
      }
    }
  }
}

}  // namespace pit::nn::kernels
