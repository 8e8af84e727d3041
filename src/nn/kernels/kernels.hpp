// Kernel engine for causal dilated convolution: problem geometry, weight
// layouts, and the autograd entry points.
//
// Two engines implement the training-kernel contract:
//   - scalar:  the original single-threaded triple-loop, kept as the
//              bit-exact reference every other engine is tested against.
//   - blocked: register-tiled stride-1 kernels over zero-padded per-call
//              copies of their inputs, parallelised with OpenMP so each
//              cell owns a disjoint output slice (bit-identical results
//              at any thread count): forward over batch x 4-c_out blocks
//              and backward-input over batch x 4-c_in blocks, each cell a
//              4 x 32 tile in registers; backward-weight over 4-c_out
//              blocks x c_in x 4-tap blocks, each cell 16 vector
//              accumulators held across the whole (n, t) reduction.
//              Strided convs keep L1 accumulator blocks.
//
// All training kernels *accumulate* into their outputs, so callers
// zero-fill. Forward and backward-input skip taps whose weights are
// exactly zero (PIT masks broadcast a zero over every channel pair of a
// pruned tap) in both engines, so pruning pays off during the search
// too; backward-weight computes every tap, because a pruned tap's
// gradient is what lets its gamma come back.
//
// Every kernel is chosen in one place, the registry (registry.hpp): it
// resolves the ISA level once and binds each op's kernel by signature.
// The free functions below are the autograd path's view of it — the
// scalar-vs-blocked choice is a pure function of the problem's MAC count
// (kBlockedMinMacs), looked up per call because autograd shapes vary.
#pragma once

#include <cstdint>

#include "tensor/shape.hpp"

namespace pit::nn::kernels {

struct ConvDims {
  index_t n;      // batch
  index_t c_in;   // input channels
  index_t c_out;  // output channels
  index_t k;      // filter taps
  index_t t_in;   // input time steps
  index_t t_out;  // output time steps
  index_t dilation;
  index_t stride;
};

/// Multiply-accumulate count of the problem (n * c_out * c_in * k * t_out).
index_t conv_macs(const ConvDims& d);

/// Below this many MACs the blocked engine's tile setup and OpenMP fork
/// cost more than they save (measured on the bench_kernels shapes), so
/// the training kernels stay on the leaner scalar loops.
inline constexpr index_t kBlockedMinMacs = 16384;

// ---- Autograd entry points (training kernels, bound by the registry) ---

/// y[n,co,t] += sum_{ci,i} w[co,ci,i] * x[n,ci,t*stride - i*dilation]
/// (implicit zero left-padding). `bias` may be null.
void conv_forward(const float* x, const float* w, const float* bias, float* y,
                  const ConvDims& d);

/// dx[n,ci,s] += sum_{co,i} w[co,ci,i] * dy[n,co,t], s = t*stride - i*dil.
void conv_backward_input(const float* dy, const float* w, float* dx,
                         const ConvDims& d);

/// dw[co,ci,i] += sum_{n,t} dy[n,co,t] * x[n,ci,t*stride - i*dilation].
void conv_backward_weight(const float* dy, const float* x, float* dw,
                          const ConvDims& d);

/// db[co] += sum_t dy[n,co,t], once per n in increasing n order (a float
/// sum per row). Bound by the latency of each row's add chain, not by
/// memory: it splits channel blocks over the OpenMP pool and interleaves
/// a block's chains (tensor/parallel.hpp). No registry binding.
void conv_backward_bias(const float* dy, float* db, const ConvDims& d);

// ---- fp32 inference layout (frozen runtime) ----------------------------
//
// The no-tape runtime (src/runtime) runs packed inference kernels that
// fuse bias and ReLU into the store (see ConvPackedF32Fn in registry.hpp).
// Their weights are pre-packed with pack_conv_weight into
//   wp[(ci * k + i) * co_round + co],   co_round = round_up(c_out, kPackCo)
// so the kPackCo output rows of a register tile read one contiguous,
// zero-padded group per tap.

/// Output rows per packed weight group / register tile.
inline constexpr index_t kPackCo = 4;

/// Time steps per register tile — also the write-slack (in floats) a
/// padded row must carry after its data so ragged tails can over-read.
inline constexpr index_t kPackTimeTile = 32;

/// Floats pack_conv_weight needs for dims `d`.
index_t packed_weight_floats(const ConvDims& d);

/// Packs (c_out, c_in, k) row-major weights into the inference layout.
void pack_conv_weight(const float* w, const ConvDims& d, float* out);

// ---- int8 inference layout (quantized compiled runtime) ----------------
//
// The quantized runtime (runtime/quantize_plan.hpp) stores activations as
// *unsigned* 8-bit affine values in a channel-group-interleaved layout:
// channels are packed in groups of kQuantCiGroup, and each group-row holds
// 4 interleaved bytes per time step — so the 4 bytes at one step form
// exactly the contiguous u8 quad a VNNI dot-product instruction (or its
// portable emulation) consumes. Weights are signed 8-bit, quantized
// per-output-channel symmetric, packed so a register tile reads one
// contiguous kQuantCo x kQuantCiGroup block per (channel-group, tap):
//
//   wp[((ci_group * k + tap) * co_round + co) * 4 + ci_lane]
//
// with co_round = round_up(c_out, kQuantCo). Accumulation is int32; the
// store requantizes with a per-channel float multiplier/bias (bias, input
// zero-point correction, and output zero point pre-folded by the plan
// compiler), clamps (ReLU folds into the lower clamp), and writes either
// u8 group rows or — for the plan output — dequantized float rows. The
// kernels themselves (ConvPackedI8Fn and friends in registry.hpp) are
// multi-versioned per ISA level, plus an AVX512-VNNI variant (vpdpbusd)
// where the CPU supports it.

/// Output channels per i8 register tile / packed-weight group.
inline constexpr index_t kQuantCo = 16;
/// Interleaved input channels per activation quad (the dot-product word).
inline constexpr index_t kQuantCiGroup = 4;
/// Output time steps per i8 register tile.
inline constexpr index_t kQuantTimeTile = 8;

/// Channel-group rows of a C4-interleaved activation with `channels` rows.
inline constexpr index_t quant_groups(index_t channels) {
  return (channels + kQuantCiGroup - 1) / kQuantCiGroup;
}

/// Bytes pack_conv_weight_i8 needs for dims `d` (c_in, c_out, k).
index_t packed_weight_bytes_i8(const ConvDims& d);

/// Packs (c_out, c_in, k) row-major int8 weights into the i8 inference
/// layout above; padding lanes (c_in % 4, c_out up to co_round) are zero.
void pack_conv_weight_i8(const std::int8_t* w, const ConvDims& d,
                         std::int8_t* out);

// ---- Scalar reference (parity tests and benches compare against it) ----

namespace scalar {
void conv_forward(const float* x, const float* w, const float* bias, float* y,
                  const ConvDims& d);
void conv_backward_input(const float* dy, const float* w, float* dx,
                         const ConvDims& d);
void conv_backward_weight(const float* dy, const float* x, float* dw,
                          const ConvDims& d);
}  // namespace scalar

}  // namespace pit::nn::kernels
