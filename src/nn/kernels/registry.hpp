// Signature-keyed kernel registry with plan-build-time binding.
//
// PIT's whole point is that search freezes the architecture: a compiled
// plan knows every op's (k, dilation, c_in, c_out, dtype) at compile()
// time, so nothing about kernel selection needs to happen per call. The
// registry is the only place a kernel is chosen, keyed by
//
//   op class x shape class x ISA level x dtype
//
// - op class: what the kernel computes (packed fp32 conv, fp32 linear,
//   fp32 streaming step, fp32 training conv, i8 conv, i8 add, i8 input
//   staging, i8 streaming step) — one typed bind method each.
// - shape class: the signature constraints a specialized variant demands
//   (exact tap count k, quad-aligned c_in). Generic variants carry no
//   constraints and are the guaranteed fallback: an unmatched signature
//   binds generic, it never fails. The training kernels key on the MAC
//   count instead: the scalar reference below kBlockedMinMacs, the blocked
//   engine from there on.
// - ISA level: resolved ONCE at registry construction from the CPU's
//   feature bits (one base/v3/v4 ladder per dtype, in blocked.cpp's and
//   quant.cpp's register_kernels); only the winning level's function
//   pointers are registered, so a bound kernel is a direct call.
// - dtype: fp32 vs i8 (separate op classes; the i8 ladder adds "vnni").
//
// NetBuilder::compile() / QuantizedCompiler::quantize() call the bind_*
// methods once per op and store the returned Bound<Fn> (function pointer
// plus a KernelMeta describing what was bound) on the op. The executors
// (runtime/executor_*.cpp) consume kernels ONLY through those bindings —
// scripts/check_includes.py enforces that they include this header and
// never the raw impl entry points. The autograd path (kernels.hpp's
// conv_forward / conv_backward_*) looks up the training binding per call.
//
// Adding a variant: implement it per-ISA in blocked_impl.cpp /
// quant_impl.cpp, declare it in blocked.cpp / quant.cpp, and register it
// from the register_kernels() hook there with its shape constraints. See
// docs/ARCHITECTURE.md ("Kernel registry & specialization").
#pragma once

#include <cstdint>
#include <vector>

#include "nn/kernels/kernels.hpp"

namespace pit::nn::kernels {

// Tap counts that get fully-unrolled template instantiations (the frozen
// paper networks use k in {3, 5}; anything up to 9 comes free). The
// X-macro stamps out declarations/definitions/registrations in one list.
inline constexpr index_t kMaxSpecializedK = 9;
#define PIT_FOREACH_SPEC_K(X) X(1) X(2) X(3) X(4) X(5) X(6) X(7) X(8) X(9)

// ---- Kernel function-pointer signatures ---------------------------------
//
// Each typedef carries its kernel's contract. A bound pointer is the
// concrete per-ISA implementation with no dispatch wrapper around it, and
// it does no per-call argument checks: the plan proved those invariants
// at compile time (runtime/verify.cpp).

/// Packed causal conv, stride 1:
///   y[n,co,t] = [relu] (bias[co] + sum_{ci,i} wp[...] * x[n,ci,t - i*dil])
/// over weights packed with pack_conv_weight. `bias` may be null; y is
/// OVERWRITTEN (no zero-fill needed). `x`/`y` point at the logical t = 0
/// of channel row 0; consecutive channel rows are x_stride / y_stride
/// floats apart (>= t_in / t_out; the sample stride is c * row stride).
/// With x_padded, the caller guarantees each x row is embedded in a buffer
/// with >= (k-1)*dilation zeroed floats before it and >= kPackTimeTile
/// readable floats after it — then every tile runs the register-resident
/// fast path with no per-tap bounds work. Without it (dense rows, x_stride
/// == t_in) tiles touching the implicit left padding fall back to clamped
/// spans. Strided convs take the training kernels instead.
using ConvPackedF32Fn = void (*)(const float* x, const float* wp,
                                 const float* bias, float* y,
                                 const ConvDims& d, index_t x_stride,
                                 index_t y_stride, bool x_padded, bool relu);
/// Training-kernel forward, any stride: the contract of kernels.hpp's
/// conv_forward (accumulates into y; `bias` may be null).
using ConvTrainF32Fn = void (*)(const float* x, const float* w,
                                const float* bias, float* y,
                                const ConvDims& d);
/// Training-kernel backward-input: conv_backward_input's contract.
using ConvBackwardInputF32Fn = void (*)(const float* dy, const float* w,
                                        float* dx, const ConvDims& d);
/// Training-kernel backward-weight: conv_backward_weight's contract.
using ConvBackwardWeightF32Fn = void (*)(const float* dy, const float* x,
                                         float* dw, const ConvDims& d);
/// y = [relu] (x W^T + b) over (n, f) x (o, f) -> (n, o) with unpacked
/// row-major W; `bias` may be null. Overwrites y.
using LinearF32Fn = void (*)(const float* x, const float* w,
                             const float* bias, float* y, index_t n,
                             index_t f, index_t o, bool relu);
/// Streaming single-step fp32 conv over a dilated ring-buffer history
/// (the fp32 counterpart of ConvStepI8Fn). The ring holds c_in channel
/// rows of span = (k-1)*dilation+1 float slots, ring[ci * span + slot],
/// with the current input already written at slot `pos`; slots the stream
/// has not reached yet must hold 0.0 (the causal padding). Writes one
/// step: y[co] = [relu] (bias[co] + sum taps), bias may be null. Weights
/// are the packed inference layout of ConvPackedF32Fn.
using ConvStepF32Fn = void (*)(const float* ring, const float* wp,
                               const float* bias, float* y, index_t c_in,
                               index_t c_out, index_t k, index_t dilation,
                               index_t span, index_t pos, bool relu);
/// Quantized causal conv, stride 1 (kernels.hpp's int8 layout). `x`
/// points at the logical t = 0 of channel-group row 0; group rows are
/// 4 * x_stride bytes apart (x_stride in time steps) and each must be
/// preceded by >= (k-1)*dilation steps of zero-point bytes (the
/// materialized causal padding — there is no unpadded fallback). Per
/// output element: acc = sum u8(x) * s8(w) over c_in * k (int32), then
/// v = m[co] * acc + b[co] and either
///   y_q[co-group row, t] = clamp(round(v), out_lo, 255)   (y_f == null)
///   y_f[co * y_stride + t] = relu ? max(v, 0) : v         (y_f != null)
/// Exactly one of y_q / y_f is non-null. u8 output rows are y_stride
/// steps (4 * y_stride bytes) apart; float rows y_stride floats apart.
/// Padding output lanes get m = 0 so their stores are deterministic.
/// `out_lo` is the lower u8 clamp (the output zero point when ReLU is
/// fused, else 0).
///
/// A fully-connected layer is the k = 1, t = 1 case: per sample, f4
/// contiguous feature bytes (a multiple of 4; the flattened C4 block) as
/// c_in, weights packed with pack_conv_weight_i8 (c_in = f4, k = 1), u8
/// outputs round_up(o, 4) bytes per sample, x_stride = y_stride = 1.
using ConvPackedI8Fn = void (*)(const std::uint8_t* x, const std::int8_t* wp,
                                const float* m, const float* b,
                                std::uint8_t* y_q, float* y_f,
                                const ConvDims& d, index_t x_stride,
                                index_t y_stride, bool relu, int out_lo);
/// Elementwise requantized residual add over u8 group rows:
///   y[i] = clamp(round(a_mul * a[i] + b_mul * b[i] + c_add), out_lo, 255)
/// for the 4 * steps data bytes of each of `rows` rows (strides in time
/// steps, as in ConvPackedI8Fn). ReLU folds into out_lo.
using AddI8Fn = void (*)(const std::uint8_t* a, const std::uint8_t* b,
                         std::uint8_t* y, index_t rows, index_t steps,
                         index_t a_stride, index_t b_stride,
                         index_t y_stride, float a_mul, float b_mul,
                         float c_add, int out_lo);
/// Quantizes a dense float (n, channels, steps) batch into u8
/// channel-group rows (the input staging of a quantized plan):
///   q = clamp(round(x * inv_scale) + zp, 0, 255)
/// Each group row carries `lead` steps of zp bytes before the data (the
/// materialized causal padding) and is `stride` steps long in total;
/// padding channel lanes are filled with zp.
using StageI8Fn = void (*)(const float* in, std::uint8_t* out, index_t n,
                           index_t channels, index_t steps, index_t lead,
                           index_t stride, float inv_scale, int zp);
/// Single-timestep quantized causal conv over a dilated u8 ring-buffer
/// history (the streaming counterpart of ConvPackedI8Fn). The ring holds
/// quant_groups(c_in) group-major channel rows of `span` =
/// (k-1)*dilation+1 interleaved quad slots:
///   ring[(group * span + slot) * 4 + lane]
/// with the current input already written at slot `pos` (0 <= pos < span)
/// and slot (pos - tap*dilation) mod span holding the input from
/// tap*dilation steps back — slots the stream has not reached yet must
/// hold the input value's zero-point byte (the causal padding). Weights,
/// requantize constants, `relu`, and `out_lo` are exactly those of the
/// batched kernel; the output is one step: either quant_groups(c_out) u8
/// quads (`y_q`) or c_out floats (`y_f`), exactly one non-null, matching
/// the batched kernel's store for the same accumulators bit for bit.
using ConvStepI8Fn = void (*)(const std::uint8_t* ring,
                              const std::int8_t* wp, const float* m,
                              const float* b, std::uint8_t* y_q, float* y_f,
                              index_t c_in, index_t c_out, index_t k,
                              index_t dilation, index_t span, index_t pos,
                              bool relu, int out_lo);

/// What got bound: the registry key parts, for describe() output and
/// benches. Points into the registry singleton — valid for the program's
/// lifetime, so plans store it by pointer.
struct KernelMeta {
  const char* op = "";       // op-class key, e.g. "conv.packed.f32"
  const char* variant = "";  // "generic", "k3", ..., "train", "inline"
  const char* isa = "";      // "base" / "v3" / "v4" / "vnni" / "scalar"...
  bool specialized = false;  // a shape-matched template instantiation
};

/// A resolved kernel: the concrete function pointer plus its metadata.
template <typename Fn>
struct Bound {
  Fn fn = nullptr;
  const KernelMeta* meta = nullptr;
  explicit operator bool() const { return fn != nullptr; }
};

/// One engine's training kernels, bound together under one meta: a
/// strided plan conv binds `forward`; the autograd path calls all three.
struct ConvTrainF32 {
  ConvTrainF32Fn forward = nullptr;
  ConvBackwardInputF32Fn backward_input = nullptr;
  ConvBackwardWeightF32Fn backward_weight = nullptr;
  KernelMeta meta;
};

/// The shape class a plan presents when binding a conv-like op.
struct ConvSig {
  index_t k = 0;
  index_t c_in = 0;
  index_t c_out = 0;
};

/// Per-variant read/write footprint of a bound kernel, relative to its
/// operands' row data: how many elements before t = 0 a kernel may read
/// (the causal look-back the planned lead must cover), how many past the
/// data end it may read (the register-tile overreach the planned slack
/// must cover), and how many past the data end it may WRITE (always 0 —
/// every store path clamps to t_out; the plan verifier and the sanitizer
/// hardening layer both enforce that declaration). Elements are floats
/// for fp32 kernels and bytes for i8 kernels. The model is uniform across
/// ISA levels and specialized variants of one op class: kPackTimeTile /
/// kQuantTimeTile bound the widest tile any registered variant uses, so
/// one declaration covers base through v4/vnni.
struct KernelFootprint {
  index_t read_before = 0;
  index_t read_after = 0;
  index_t write_after = 0;
};

class Registry {
 public:
  /// The process-wide registry. Construction (first call) registers the
  /// widest ISA level the CPU supports. Immutable afterwards; safe to use
  /// from any thread.
  static const Registry& instance();

  // ---- bind (plan-build time) ------------------------------------------
  // Every bind returns a non-null fn: specialized when the signature
  // matches a registered variant, the generic kernel otherwise.

  Bound<ConvPackedF32Fn> conv_packed_f32(const ConvSig& sig) const;
  Bound<ConvStepF32Fn> conv_step_f32(const ConvSig& sig) const;
  Bound<LinearF32Fn> linear_f32() const;
  /// The training kernels for this geometry: the scalar reference below
  /// kBlockedMinMacs MACs, the blocked engine at the registered ISA level
  /// from there on. A strided plan conv binds `forward` once, for its
  /// per-sample geometry; autograd looks the set up per call.
  const ConvTrainF32& conv_train_f32(const ConvDims& dims) const;
  Bound<ConvPackedI8Fn> conv_packed_i8(const ConvSig& sig) const;
  Bound<ConvStepI8Fn> conv_step_i8(const ConvSig& sig) const;
  Bound<AddI8Fn> add_i8() const;
  Bound<StageI8Fn> stage_i8() const;

  // Generic-only binds (benches/tests: the baseline a specialized variant
  // is compared against).
  Bound<ConvPackedF32Fn> conv_packed_f32_generic() const;
  Bound<ConvStepF32Fn> conv_step_f32_generic() const;
  Bound<ConvPackedI8Fn> conv_packed_i8_generic() const;
  Bound<ConvStepI8Fn> conv_step_i8_generic() const;
  /// The blocked training kernels whatever the problem size (parity tests
  /// and benches compare them against scalar::).
  const ConvTrainF32& conv_train_f32_blocked() const { return train_blocked_; }

  /// ISA level the fp32 / i8 ladders resolved to ("base", "v3", "v4",
  /// and for i8 possibly "vnni").
  const char* fp32_isa() const { return fp32_isa_; }
  const char* i8_isa() const { return i8_isa_; }

  /// Meta for ops the executors run as plain inline loops (avg-pool, the
  /// fp32 elementwise add): lets describe() report a binding for every
  /// op, not just the kernel-backed ones.
  static const KernelMeta& inline_meta();

  // ---- footprint model (consumed by runtime/verify.cpp) ----------------
  // What a bound kernel may touch outside its operands' [0, t) row data.
  // See KernelFootprint for units and the uniform-across-variants rule.

  /// Packed fp32 conv: with x_padded the kernel reads the (k-1)*dilation
  /// lead (materialized causal padding) and up to a full register tile
  /// past the input row's data end; the bounds-checked unpadded path
  /// touches row data only. Output rows are written exactly [0, t_out).
  static KernelFootprint conv_packed_f32_footprint(const ConvSig& sig,
                                                   index_t dilation,
                                                   bool x_padded);
  /// Packed i8 conv (and the k=1 linear form): reads the zero-point lead
  /// of (k-1)*dilation interleaved quad steps before the row data; the
  /// time loop clamps its tile, so no tail overread. Bytes.
  static KernelFootprint conv_packed_i8_footprint(const ConvSig& sig,
                                                  index_t dilation);

  // ---- registration (blocked.cpp / quant.cpp, construction only) -------
  void add_conv_packed_f32(ConvPackedF32Fn fn, const char* variant,
                           const char* isa, index_t k, bool quad_cin);
  void add_conv_step_f32(ConvStepF32Fn fn, const char* variant,
                         const char* isa, index_t k, bool quad_cin);
  void add_linear_f32(LinearF32Fn fn, const char* isa);
  void add_conv_train_f32(ConvTrainF32Fn forward,
                          ConvBackwardInputF32Fn backward_input,
                          ConvBackwardWeightF32Fn backward_weight,
                          const char* isa);
  void add_conv_packed_i8(ConvPackedI8Fn fn, const char* variant,
                          const char* isa, index_t k);
  void add_conv_step_i8(ConvStepI8Fn fn, const char* variant,
                        const char* isa, index_t k);
  void add_add_i8(AddI8Fn fn, const char* isa);
  void add_stage_i8(StageI8Fn fn, const char* isa);

 private:
  Registry();

  template <typename Fn>
  struct Entry {
    Fn fn = nullptr;
    KernelMeta meta;
    index_t k = 0;          // 0 = any tap count (generic)
    bool quad_cin = false;  // requires c_in % 4 == 0
  };

  template <typename Fn>
  Bound<Fn> bind(const std::vector<Entry<Fn>>& table, const ConvSig& sig,
                 bool allow_specialized) const;

  std::vector<Entry<ConvPackedF32Fn>> conv_packed_f32_;
  std::vector<Entry<ConvStepF32Fn>> conv_step_f32_;
  std::vector<Entry<LinearF32Fn>> linear_f32_;
  std::vector<Entry<ConvPackedI8Fn>> conv_packed_i8_;
  std::vector<Entry<ConvStepI8Fn>> conv_step_i8_;
  std::vector<Entry<AddI8Fn>> add_i8_;
  std::vector<Entry<StageI8Fn>> stage_i8_;
  ConvTrainF32 train_scalar_;
  ConvTrainF32 train_blocked_;
  const char* fp32_isa_ = "base";
  const char* i8_isa_ = "base";
};

namespace blocked {
/// Registers the fp32 kernels (training, generic and specialized
/// inference) of the widest ISA level the CPU supports. Called once from
/// the Registry constructor.
void register_kernels(Registry& r);
}  // namespace blocked

namespace quant {
/// Same for the i8 kernels (ladder adds the VNNI level).
void register_kernels(Registry& r);
}  // namespace quant

}  // namespace pit::nn::kernels
