// Frozen inference runtime for searched PIT networks.
//
// The paper's pitch is that the searched mask/gamma structure collapses
// into a plain dilated TCN that cheap inference engines run fast; this is
// that engine. A CompiledPlan executes a network as a flat op list over one
// pre-planned activation arena:
//
//   compile — the layer sequence is described through NetBuilder,
//   fold    — eval-mode BatchNorm is folded into the preceding conv
//             (w' = w * g/sigma, b' = (b - mu) * g/sigma + beta) and ReLU
//             is fused into the producing op,
//   plan    — every activation gets a liveness-planned offset in a single
//             arena (see arena.hpp): zero per-forward allocation in steady
//             state (the arena grows only when the batch size does).
//             Activations feeding a stride-1 conv are planned in a PADDED
//             row layout — (k-1)*dilation zeroed floats before each
//             channel row and a register tile of slack after it — so the
//             packed conv kernel never does per-tap bounds work,
//   execute — straight through nn::kernels (packed inference kernels /
//             blocked backend, OpenMP over the batch grid) with no
//             autograd tape and no Tensor temporaries; the only tensor
//             built is the returned output.
//
// Arena offsets are planned per batch *sample* and scaled by N at run
// time, so one plan serves every batch size.
//
// THREAD-SAFETY CONTRACT
//
// A CompiledPlan is immutable once NetBuilder::compile() returns: forward()
// and step() are const and touch no plan state besides reads. All mutable
// execution state — the activation arena and the streaming ring buffers —
// lives in an ExecutionContext that the caller passes in. Any number of
// threads may call forward()/step() on ONE shared plan concurrently as long
// as each thread uses its OWN context; a single context must never be used
// from two threads at once. The serving layer (src/serve) builds on exactly
// this split: one shared plan, one context per worker thread.
//
// Internally a plan is one op list (graph geometry only) plus one
// detail::Program per element type it runs: always an fp32 program and,
// after runtime::quantize_plan(), a u8 one. Both programs share one layout
// shape — per-root offset/lead/slack/stride rows in one arena, per-conv
// history rings, per-root step vectors — planned by one function and run
// by one batched and one step executor templated on the element type.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/conv1d.hpp"
#include "nn/kernels/registry.hpp"
#include "quant/quantize.hpp"
#include "runtime/shared_block.hpp"
#include "tensor/tensor.hpp"

namespace pit::runtime {

namespace analysis {
class PlanVerifier;  // runtime/verify.cpp: static plan verification pass
}
class PlanMutator;  // tests: seeds plan corruptions the verifier must catch

/// Inference-only snapshot of a causal dilated conv: packed weights and
/// resolved geometry, detached from any Module.
struct FrozenConv {
  index_t c_in = 0;
  index_t c_out = 0;
  index_t k = 0;
  index_t dilation = 1;
  index_t stride = 1;
  std::vector<float> weight;  // (c_out, c_in, k) row-major
  std::vector<float> bias;    // (c_out); empty when the conv has none
};

/// Snapshot of a trained nn::Conv1d.
FrozenConv freeze_conv(const nn::Conv1d& conv);

/// Folds an eval-mode batch-norm into the conv that feeds it:
///   BN(conv(x)) = (g/sigma) * conv(x) + (beta - mu * g/sigma)
/// becomes the same conv with per-output-channel scaled weights and a
/// shifted bias (materialized if the conv had none).
void fold_batchnorm(FrozenConv& conv, const nn::BatchNorm1d& bn);

/// Handle to one activation inside a plan under construction.
using ValueId = int;

namespace detail {

enum class OpKind { kConv, kLinear, kAvgPool, kAdd };

/// One recorded op: graph geometry only. How an op runs in a given dtype
/// lives in that dtype's Program (its per-op lowering, parallel to the op
/// list).
struct Op {
  OpKind kind = OpKind::kConv;
  ValueId in0 = -1;
  ValueId in1 = -1;  // second addend of kAdd
  ValueId out = -1;
  bool relu = false;  // activation fused into this op's output write
  index_t c_in = 0, c_out = 0;  // conv/linear geometry (linear: features)
  index_t k = 0;                // conv taps / pool kernel
  index_t dilation = 1, stride = 1;
  index_t t_in = 0, t_out = 0;
};

/// Stride-1 convs run the packed inference kernels (packed weights,
/// padded input rows) in every dtype; strided convs take the fp32
/// training kernels over dense rows.
inline bool packed_conv(const Op& op) {
  return op.kind == OpKind::kConv && op.stride == 1;
}

struct Value {
  index_t channels = 0;
  index_t steps = 0;
  ValueId alias_of = -1;  // shares storage with an earlier value (flatten)
  index_t numel() const { return channels * steps; }
};

/// Kernels resolved for one fp32 op at plan-build time (the registry is
/// consulted exactly once, in NetBuilder::compile()); the executors call
/// these pointers directly — no per-call backend resolution. `meta` /
/// `step_meta` describe what was bound for describe() output. Ops the
/// executors run inline (avg-pool, the fp32 add) carry only a meta.
struct OpBinding {
  nn::kernels::ConvPackedF32Fn conv = nullptr;      // packed stride-1 conv
  nn::kernels::ConvTrainF32Fn conv_train = nullptr; // strided conv
  nn::kernels::LinearF32Fn linear = nullptr;
  nn::kernels::ConvStepF32Fn step = nullptr;        // streaming single step
  const nn::kernels::KernelMeta* meta = nullptr;
  const nn::kernels::KernelMeta* step_meta = nullptr;
};

/// Per-op fp32 lowering: param block handles plus the bound kernels.
struct F32Op {
  index_t w_blk = -1, b_blk = -1;  // handles into the program's params
  OpBinding bind;
};

/// Kernels resolved for one quantized op at lowering time (the registry
/// is consulted exactly once, in QuantizedCompiler::quantize()).
struct QuantBinding {
  nn::kernels::ConvPackedI8Fn conv = nullptr;  // conv AND linear (k=1 form)
  nn::kernels::ConvStepI8Fn step = nullptr;    // streaming single step
  nn::kernels::AddI8Fn add = nullptr;
  const nn::kernels::KernelMeta* meta = nullptr;
  const nn::kernels::KernelMeta* step_meta = nullptr;
};

/// Per-op int8 lowering: the op's packed s8 weight block handle, offsets
/// into the program's float requantize-constant pool, plus the scalar
/// requantize terms of the weight-less ops. Bias, input zero-point
/// correction, and output zero point are all pre-folded into these
/// constants — the kernels only ever compute m * acc + b.
struct QuantOp {
  index_t w_blk = -1;      // s8 weight block handle (conv / linear)
  index_t m_off = -1;      // floats into consts: co_round multipliers
  index_t b_off = -1;      // floats into consts: co_round biases
  float a_mul = 0.0F;      // add / pool: input scalings and offset
  float b_mul = 0.0F;
  float c_add = 0.0F;
  bool out_float = false;  // dequantized store (this op feeds the output)
  int out_lo = 0;          // lower u8 store clamp (ReLU folds in here)
  QuantBinding bind;       // kernels resolved at lowering time
};

/// What each element type's program stores besides its layout. Rows of a
/// program hold `kGroup` channels interleaved per time step (1 for fp32,
/// the i8 kernels' channel quad for u8); `pad()` is the causal padding
/// element a root's lead and its conv consumers' rings hold (0.0 / the
/// root's zero-point byte).
template <typename T>
struct ProgramData;

template <>
struct ProgramData<float> {
  using Lowering = F32Op;
  static constexpr index_t kGroup = 1;
  /// Tail slack after every packed-conv input row: the register-tile
  /// overreach of the packed fp32 kernels.
  static constexpr index_t kConvSlack = nn::kernels::kPackTimeTile;
  /// The input is staged into the arena only when a conv needs it padded.
  static constexpr bool kAlwaysStage = false;
  static constexpr const char* kName = "fp32";
  float pad(std::size_t /*root*/) const { return 0.0F; }

  BlockTable<float> params;  // shared packed weight/bias blocks
};

template <>
struct ProgramData<std::uint8_t> {
  using Lowering = QuantOp;
  static constexpr index_t kGroup = nn::kernels::kQuantCiGroup;
  static constexpr index_t kConvSlack = 0;
  /// Always staged: the float input is quantized into the arena.
  static constexpr bool kAlwaysStage = true;
  static constexpr const char* kName = "u8";
  std::uint8_t pad(std::size_t root) const {
    return static_cast<std::uint8_t>(qparams[root].zero_point);
  }

  BlockTable<std::int8_t> weights;  // shared packed s8 weight blocks
  std::vector<float> consts;        // requantize m / b vectors
  std::vector<quant::QuantParams> qparams;  // per value (aliases: root's)
  std::vector<double> value_bound;          // worst-case error, per root
  double error_bound = 0.0;
  double error_estimate = 0.0;
  // Input staging kernel (float -> u8 rows), bound at lowering time.
  nn::kernels::StageI8Fn stage_fn = nullptr;
  const nn::kernels::KernelMeta* stage_meta = nullptr;
};

/// Streaming layout: one history ring per conv op of row groups of
/// (k-1)*dilation+1 slots, one single-step vector per storage root.
/// Offsets and totals in elements of the program's type.
struct StreamLayout {
  std::vector<index_t> ring_off;  // per op; -1 for non-conv ops
  std::vector<index_t> vec_off;   // per value; -1 for aliases
  index_t ring = 0;
  index_t vecs = 0;
};

/// One executable program of a plan in element type T (float or u8):
/// its layout and its per-op lowering.
///
/// Row layout, per value id (entries of aliases are unused): every
/// storage root is `row_groups(channels)` rows of `kGroup * stride`
/// elements; a row holds `lead` steps of causal padding, the `steps`
/// data steps, then `slack` readable steps. A root with `offset >= 0`
/// lives in the per-sample arena; the others live in external buffers
/// (the output tensor, and the caller's input unless it is staged — the
/// input root carries an arena offset exactly when the executor copies
/// it into the arena first).
template <typename T>
struct Program : ProgramData<T> {
  using Lowering = typename ProgramData<T>::Lowering;

  static index_t row_groups(index_t channels) {
    return (channels + ProgramData<T>::kGroup - 1) / ProgramData<T>::kGroup;
  }

  std::vector<index_t> offset;  // per-sample arena offset; -1 = external
  std::vector<index_t> lead;    // causal pad steps before each row
  std::vector<index_t> slack;   // readable steps after each row
  std::vector<index_t> stride;  // row stride in steps: lead+steps+slack
  index_t arena = 0;            // arena elements per batch sample
  StreamLayout stream;          // valid when the plan is streamable
  std::vector<Lowering> ops;    // per-op lowering, parallel to the ops
};

}  // namespace detail

class CompiledPlan;

/// Per-thread execution state for a CompiledPlan: one buffer set per
/// element type — the batched activation arena plus, for streaming step()
/// execution, the per-conv dilated input history rings and per-root
/// single-step vectors. Each set grows only when a program of its type
/// runs, so one context may serve fp32 and quantized plans
/// interchangeably. A context is cheap to construct (buffers grow lazily
/// on first use), is bound to whichever plan last streamed on it, and
/// must only ever be driven by one thread at a time. It must not outlive
/// the plan it is bound to.
///
/// ALLOCATION SEAM. Every buffer is a std::pmr vector: a context built
/// with a memory_resource routes all growth and release through it. This
/// is how serve::SessionManager backs a million session contexts with its
/// per-shard caching SessionAllocator instead of a million raw mallocs; a
/// default-constructed context keeps the global new/delete resource, so
/// nothing changes for single-context callers. The resource must outlive
/// the context.
class ExecutionContext {
 public:
  ExecutionContext() = default;
  explicit ExecutionContext(std::pmr::memory_resource* mr)
      : f32_(mr), u8_(mr) {}

  /// Forgets the streaming history: the next step() starts a fresh
  /// sequence at t = 0 (implicit causal zero-padding again). The batch
  /// arena is untouched — it carries no state between forwards.
  void reset_stream() {
    stream_plan_ = nullptr;
    stream_t_ = 0;
  }

  /// Time steps consumed since the last reset (streaming mode).
  std::uint64_t stream_position() const { return stream_t_; }

  /// Idle compaction: releases the batched-forward scratch (the fp32 and
  /// u8 arenas — forward() carries no state between calls, so nothing is
  /// lost) back to the memory resource while KEEPING the streaming state:
  /// ring buffers, per-value step vectors, position, and plan binding all
  /// survive, so a compacted streaming session resumes its sequence
  /// untouched. The next forward() simply regrows the arena.
  void compact() {
    release(f32_.arena);
    release(u8_.arena);
  }

  /// Releases every buffer — batch arenas AND streaming state — and
  /// forgets the stream binding (the next step() starts a fresh
  /// sequence). This is the full teardown a pooled-but-cold session slot
  /// uses to hand its bytes back to the allocator cache.
  void release_buffers() {
    compact();
    release(f32_.ring);
    release(f32_.vecs);
    release(u8_.ring);
    release(u8_.vecs);
    reset_stream();
  }

  /// Bytes currently held by the batched-forward arenas (what compact()
  /// frees). Capacity, not size — this is the malloc footprint.
  std::size_t batch_arena_bytes() const {
    return f32_.arena.capacity() * sizeof(float) + u8_.arena.capacity();
  }
  /// Bytes currently held by the streaming rings and step vectors (what
  /// survives compact()).
  std::size_t stream_bytes() const {
    return (f32_.ring.capacity() + f32_.vecs.capacity()) * sizeof(float) +
           u8_.ring.capacity() + u8_.vecs.capacity();
  }

 private:
  friend class CompiledPlan;

  /// The buffers a program of element type T runs in.
  template <typename T>
  struct Buffers {
    Buffers() = default;
    explicit Buffers(std::pmr::memory_resource* mr)
        : arena(mr), ring(mr), vecs(mr) {}
    std::pmr::vector<T> arena;  // grown to the arena size * max N
    std::pmr::vector<T> ring;   // per-conv dilated input history
    std::pmr::vector<T> vecs;   // one step vector per storage root
  };

  template <typename T>
  Buffers<T>& buffers() {
    if constexpr (std::is_same_v<T, float>) {
      return f32_;
    } else {
      return u8_;
    }
  }

  template <typename V>
  static void release(V& v) {
    // swap-with-empty rather than shrink_to_fit: the standard makes
    // shrink_to_fit a non-binding request, the swap is a guaranteed
    // deallocation (same resource, so the pmr swap is well-formed).
    V(v.get_allocator()).swap(v);
  }

  Buffers<float> f32_;
  Buffers<std::uint8_t> u8_;
  const CompiledPlan* stream_plan_ = nullptr;  // rings sized for this plan
  std::uint64_t stream_t_ = 0;
};

/// An immutable, executable inference plan. Built by NetBuilder::compile().
/// Safe to share across threads — see the thread-safety contract above.
class CompiledPlan {
 public:
  /// Executes the plan on an (N, C, T) batch (or (N, C) when the declared
  /// input has one step). Grad mode is ignored — no tape is ever built —
  /// and nothing is allocated per forward except the returned tensor
  /// (plus a one-time growth of the context's arena when N exceeds all
  /// batches that context has served).
  Tensor forward(const Tensor& input, ExecutionContext& ctx) const;

  /// True when the network can run one time step at a time: every op is a
  /// stride-1 causal conv or an elementwise add, so t_out == t_in
  /// throughout and each conv only ever needs its past (k-1)*dilation
  /// inputs — which the context keeps in per-conv ring buffers.
  bool streamable() const { return streamable_; }

  /// Streaming single-step execution: consumes one time-step vector
  /// (input_channels() floats) and produces one output vector
  /// (output_channels() floats). After T steps from a reset context the
  /// outputs match columns 0..T-1 of forward() on the same sequence —
  /// bit-exactly for quantized plans, whose step runs the int8 program
  /// over u8 ring-buffer history. Requires streamable(); the context's
  /// history before the first step is the implicit causal padding (zeros
  /// for fp32 plans, zero-point bytes for quantized ones).
  void step(const float* input, float* output, ExecutionContext& ctx) const;
  /// Tensor convenience overload: input rank-1 (C,), returns (C_out,).
  Tensor step(const Tensor& input, ExecutionContext& ctx) const;

  index_t input_channels() const;
  index_t input_steps() const;
  index_t output_channels() const;
  index_t output_steps() const;

  // ---- Quantized lowering (see runtime/quantize_plan.hpp) ---------------

  /// True when this plan executes the int8 program: u8 affine activations
  /// in a byte arena, s8 per-channel weights, int32 accumulation, fused
  /// requantize on store. Built by runtime::quantize_plan(); forward()
  /// and step() dispatch automatically, so serving layers need no
  /// changes — a quantized plan of a streamable network streams int8
  /// (u8 ring-buffer history, single-step i8 kernels).
  bool quantized() const { return u8_.has_value(); }
  /// Analytic worst-case |quantized - fp32 plan| output bound, valid for
  /// inputs inside the calibrated input range. Requires quantized().
  double quant_error_bound() const;
  /// Probabilistic (RMS-model) estimate of the same output error — the
  /// realistic magnitude, orders tighter than the worst-case bound.
  double quant_error_estimate() const;
  /// Packed s8 weight bytes of the quantized program (0 when fp32-only).
  index_t quant_weight_bytes() const {
    return u8_ ? static_cast<index_t>(u8_->weights.total_elems()) : 0;
  }
  /// Byte-arena bytes per batch sample (0 when fp32-only).
  index_t quant_arena_bytes_per_sample() const {
    return u8_ ? u8_->arena : 0;
  }
  /// Calibrated affine u8 parameters per value storage root (empty when
  /// fp32-only; aliases report their root's entry). Bit-identical across
  /// quantize_plan() runs over the same calibration stream.
  const std::vector<quant::QuantParams>& activation_quant_params() const;

  /// Public geometry of one executed op, for benches that cross-check the
  /// plan against analytical hardware models (hw::gap8).
  struct OpInfo {
    detail::OpKind kind = detail::OpKind::kConv;
    index_t c_in = 0, c_out = 0, k = 1, dilation = 1, stride = 1;
    index_t t_in = 1, t_out = 1;
    bool relu = false;
    /// Multiply-accumulates per batch sample (0 for kAdd).
    index_t macs() const;
  };
  std::vector<OpInfo> op_infos() const;
  /// Activation arena floats needed per batch sample (liveness-planned;
  /// compare with the sum of all activation sizes to see the reuse).
  index_t arena_floats_per_sample() const { return fp32_.arena; }
  /// Sum of all planned activation buffer sizes (padding included) per
  /// sample, had nothing been reused.
  index_t activation_floats_per_sample() const;
  /// Packed parameter count (post-folding; BN has disappeared into convs).
  index_t param_floats() const {
    return static_cast<index_t>(fp32_.params.total_elems());
  }
  std::size_t num_ops() const { return ops_.size(); }
  /// Visits every shared weight block (fp32 params and s8 qweights) with
  /// (storage pointer, bytes) — the registry's dedup accounting walks this
  /// to count bytes resident once across plans that share blocks.
  void visit_weight_blocks(
      const std::function<void(const void*, std::size_t)>& fn) const {
    for (index_t i = 0; i < fp32_.params.count(); ++i) {
      fn(fp32_.params.data(i), fp32_.params.block(i)->size() * sizeof(float));
    }
    if (u8_) {
      const BlockTable<std::int8_t>& weights = u8_->weights;
      for (index_t i = 0; i < weights.count(); ++i) {
        fn(weights.data(i), weights.block(i)->size());
      }
    }
  }
  /// Order-sensitive content hash over all packed fp32 param blocks — the
  /// architecture fingerprint component derived from the exported weights.
  std::uint64_t param_content_hash() const {
    std::uint64_t h = fp32_.params.content_hash();
    if (u8_ && u8_->weights.count() > 0) {
      // An int8 lowering shares its source's fp32 blocks verbatim — the
      // s8 table is what distinguishes the two plans' content.
      const std::uint64_t q = u8_->weights.content_hash();
      h = hash_bytes(&q, sizeof(q), h);
    }
    return h;
  }
  /// Human-readable plan dump: ops, fusions, arena offsets, totals.
  std::string summary() const;
  /// summary() plus the kernel binding of every op — registry key, ISA
  /// level, and specialized-vs-generic — so benches and bug reports can
  /// attribute performance to the exact kernel that ran. Quantized plans
  /// report the i8 bindings (plus the input staging kernel); streamable
  /// plans also show each conv's streaming-step binding.
  std::string describe() const;

 private:
  friend class NetBuilder;
  friend class QuantizedCompiler;  // quantize_plan.cpp: builds/compares
  friend class analysis::PlanVerifier;  // read-only verification pass
  friend class PlanMutator;             // test-only plan corruption
  CompiledPlan() = default;

  /// Observation hook for calibration and per-layer diagnostics: invoked
  /// once for the network input and once after each op, with the value id
  /// and its (dense-view) float data — `data` points at (row 0, t = 0),
  /// rows are n * channels, each `steps` long and `stride` floats apart.
  /// The u8 program dequantizes into a scratch row before calling.
  using ValueHook =
      std::function<void(ValueId, const float* data, index_t rows,
                         index_t steps, index_t stride)>;

  /// The one layout planner (plan_builder.cpp): plans `prog`'s rows,
  /// arena, input staging and streaming layout from the op list.
  template <typename T>
  void plan_layout(detail::Program<T>& prog) const;
  /// The batched executor (executor_batched.cpp).
  template <typename T>
  Tensor run_batched(const detail::Program<T>& prog, const Tensor& input,
                     ExecutionContext& ctx, const ValueHook* hook) const;
  /// The step executor (executor_step.cpp).
  template <typename T>
  void run_step(const detail::Program<T>& prog, const float* input,
                float* output, ExecutionContext& ctx) const;

  std::vector<detail::Op> ops_;
  std::vector<detail::Value> values_;
  std::vector<ValueId> root_;  // alias-resolved storage id per value
  ValueId input_ = -1;
  ValueId output_ = -1;
  // Every op is a stride-1 conv or an add: both programs carry a
  // streaming layout.
  bool streamable_ = false;
  detail::Program<float> fp32_;
  // The int8 program, built by QuantizedCompiler; when present forward()
  // and step() run it, and fp32_ stays intact for reference runs and
  // per-layer comparisons.
  std::optional<detail::Program<std::uint8_t>> u8_;
};

/// Records a network as a sequence of fused inference ops, then plans and
/// packages it. Single use: compile() consumes the builder.
class NetBuilder {
 public:
  /// Declares the network input: `channels` x `steps` per sample. Must be
  /// called exactly once, first.
  ValueId input(index_t channels, index_t steps);
  /// y = conv(x) [+ fused ReLU]. Weights/bias are copied into the plan.
  ValueId conv(ValueId x, const FrozenConv& c, bool fuse_relu);
  /// y = x W^T + b [+ fused ReLU] on a flat (steps == 1) value.
  ValueId linear(ValueId x, const Tensor& weight, const Tensor& bias,
                 bool fuse_relu);
  ValueId avg_pool(ValueId x, index_t kernel, index_t stride);
  /// Elementwise y = a + b [+ fused ReLU] (the residual join).
  ValueId add(ValueId a, ValueId b, bool fuse_relu);
  /// (C, T) -> (C*T, 1). Pure aliasing: row-major layout makes the
  /// flattened view the same bytes, so this costs nothing at run time.
  ValueId flatten(ValueId x);

  /// Plans the arena (liveness over the recorded ops) and returns the
  /// executable plan whose result is `output`. When `pool` is given, every
  /// packed weight/bias block is interned through it, so plans sharing a
  /// pool share physical storage for bytewise-identical layers.
  CompiledPlan compile(ValueId output, WeightPool* pool = nullptr) &&;

 private:
  ValueId new_value(index_t channels, index_t steps, ValueId alias_of = -1);
  const detail::Value& value(ValueId v) const;
  index_t push_params(const float* data, index_t count);
  void push_op(const detail::Op& op, index_t w_blk = -1,
               index_t b_blk = -1);

  std::vector<detail::Op> ops_;
  std::vector<detail::Value> values_;
  detail::Program<float> fp32_;  // per-op param blocks so far
  ValueId input_ = -1;
};

}  // namespace pit::runtime
