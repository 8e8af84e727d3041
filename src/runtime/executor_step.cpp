// Streaming single-step execution of a CompiledPlan: one executor template
// advances either element type's program one time step over per-conv
// dilated history rings and per-root step vectors. The shared part — ring
// bind with its size re-check, causal-padding ring init, and the ring push
// — is written once; input staging, the op bodies, and the output store
// are the small per-dtype overloads below. The per-conv MAC loop is the
// single-step kernel bound at plan-build / lowering time
// (detail::OpBinding::step / detail::QuantBinding::step) — this TU never
// consults the registry.
#include <algorithm>

#include "nn/kernels/registry.hpp"
#include "runtime/compiled_net.hpp"
#include "runtime/executor_detail.hpp"
#include "runtime/hardening.hpp"
#include "tensor/error.hpp"

namespace pit::runtime {

namespace {

using nn::kernels::quant_groups;

// ---- fp32 ------------------------------------------------------------------

void stage_step(const detail::Program<float>& /*prog*/, std::size_t /*r*/,
                const float* input, float* x, index_t channels) {
  std::copy(input, input + channels, x);
}

void step_conv(const detail::Op& op, const detail::Program<float>& prog,
               const detail::F32Op& lo, const float* ring, float* y,
               float* /*out*/, index_t span, index_t pos) {
  lo.bind.step(ring, prog.params.data(lo.w_blk),
               lo.b_blk >= 0 ? prog.params.data(lo.b_blk) : nullptr, y,
               op.c_in, op.c_out, op.k, op.dilation, span, pos, op.relu);
}

void step_add(const detail::Op& op, const detail::F32Op& /*lo*/,
              const float* a, const float* b, float* y, float* /*out*/) {
  for (index_t ch = 0; ch < op.c_out; ++ch) {
    const float s = a[ch] + b[ch];
    y[ch] = op.relu && s < 0.0F ? 0.0F : s;
  }
}

void store_output(const float* y, float* output, index_t channels) {
  std::copy(y, y + channels, output);
}

// ---- u8 --------------------------------------------------------------------

/// Quantizes the input step into its quad vector through the same staging
/// kernel as the batched program (a (1, C, 1) batch with no lead), so the
/// rounding arithmetic — and with it the stream's bit-exactness — can
/// never drift from the batched path's.
void stage_step(const detail::Program<std::uint8_t>& prog, std::size_t r,
                const float* input, std::uint8_t* x, index_t channels) {
  const quant::QuantParams& qp = prog.qparams[r];
  prog.stage_fn(input, x, /*n=*/1, channels, /*steps=*/1, /*lead=*/0,
                /*stride=*/1, 1.0F / qp.scale, qp.zero_point);
}

/// `out` is the dense float output when this op produces the plan output
/// (a dequantizing store); otherwise the op requantizes into `y`.
void step_conv(const detail::Op& op, const detail::Program<std::uint8_t>& prog,
               const detail::QuantOp& qop, const std::uint8_t* ring,
               std::uint8_t* y, float* out, index_t span, index_t pos) {
  qop.bind.step(ring, prog.weights.data(qop.w_blk),
                prog.consts.data() + qop.m_off, prog.consts.data() + qop.b_off,
                out != nullptr ? nullptr : y, out, op.c_in, op.c_out, op.k,
                op.dilation, span, pos, op.relu, qop.out_lo);
}

void step_add(const detail::Op& op, const detail::QuantOp& qop,
              const std::uint8_t* a, const std::uint8_t* b, std::uint8_t* y,
              float* out) {
  if (out == nullptr) {
    qop.bind.add(a, b, y, quant_groups(op.c_out), /*steps=*/1, 1, 1, 1,
                 qop.a_mul, qop.b_mul, qop.c_add, qop.out_lo);
    return;
  }
  // Dequantizing store of the plan output — the same expression as the
  // batched dequantizing add.
  for (index_t ch = 0; ch < op.c_out; ++ch) {
    float v = qop.a_mul * static_cast<float>(a[ch]) +
              qop.b_mul * static_cast<float>(b[ch]) + qop.c_add;
    if (op.relu && v < 0.0F) {
      v = 0.0F;
    }
    out[ch] = v;
  }
}

/// The op producing the plan output already stored it dequantized.
void store_output(const std::uint8_t* /*y*/, float* /*output*/,
                  index_t /*channels*/) {}

}  // namespace

void CompiledPlan::step(const float* input, float* output,
                        ExecutionContext& ctx) const {
  if (u8_) {
    run_step(*u8_, input, output, ctx);
  } else {
    run_step(fp32_, input, output, ctx);
  }
}

Tensor CompiledPlan::step(const Tensor& input, ExecutionContext& ctx) const {
  PIT_CHECK(input.rank() == 1 && input.dim(0) == input_channels(),
            "CompiledPlan::step: expected a (" << input_channels()
                                               << ",) time-step vector, got "
                                               << input.shape().to_string());
  Tensor out = Tensor::empty(Shape{output_channels()});
  step(input.data(), out.data(), ctx);
  return out;
}

template <typename T>
void CompiledPlan::run_step(const detail::Program<T>& prog,
                            const float* input, float* output,
                            ExecutionContext& ctx) const {
  using Data = detail::ProgramData<T>;
  constexpr index_t kGroup = Data::kGroup;
  PIT_CHECK(streamable_,
            "CompiledPlan::step: plan is not streamable (it contains a "
            "pool, linear, or strided conv — run forward() on whole "
            "sequences instead)");
  const auto root = [&](ValueId v) {
    return static_cast<std::size_t>(root_[static_cast<std::size_t>(v)]);
  };
  const detail::StreamLayout& layout = prog.stream;
  auto& buf = ctx.buffers<T>();
  if (ctx.stream_plan_ != this) {
    if (hardening::mode() != hardening::Mode::kOff) {
      // Dynamic ring-size enforcement: re-derive the exact streaming
      // layout from the op list before any step indexes into it. A ring
      // or vector arena sized any other way would make step() read or
      // write out of its span.
      const detail::StreamLayout want =
          detail::stream_layout(ops_, values_, root_, kGroup);
      PIT_CHECK(layout.ring == want.ring && layout.vecs == want.vecs,
                "CompiledPlan::step: " << Data::kName
                                       << " streaming layout holds "
                                       << layout.ring << "/" << layout.vecs
                                       << " ring/vector elements, ops need "
                                       << want.ring << "/" << want.vecs);
    }
    // Rings start life holding each conv input's causal padding (0.0 or
    // the zero-point byte): slots the stream has not reached yet read
    // exactly like the batched program's materialized row leads.
    buf.ring.assign(static_cast<std::size_t>(layout.ring), T{});
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const detail::Op& op = ops_[i];
      if (op.kind == detail::OpKind::kConv) {
        T* ring = buf.ring.data() + layout.ring_off[i];
        std::fill(ring,
                  ring + detail::Program<T>::row_groups(op.c_in) * kGroup *
                             detail::ring_span(op),
                  prog.pad(root(op.in0)));
      }
    }
    buf.vecs.assign(static_cast<std::size_t>(layout.vecs), T{});
    ctx.stream_t_ = 0;
    ctx.stream_plan_ = this;
  }

  T* rings = buf.ring.data();
  T* vecs = buf.vecs.data();
  const auto t = static_cast<index_t>(ctx.stream_t_);
  const auto vec = [&](ValueId v) -> T* {
    return vecs + layout.vec_off[root(v)];
  };
  const std::size_t out_root = root(output_);
  stage_step(prog, root(input_), input, vec(input_), input_channels());

  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const detail::Op& op = ops_[i];
    float* out = root(op.out) == out_root ? output : nullptr;
    if (op.kind == detail::OpKind::kAdd) {
      step_add(op, prog.ops[i], vec(op.in0), vec(op.in1), vec(op.out), out);
      continue;
    }
    // Conv: push the current input rows into this op's history ring, then
    // hand the ring to the bound single-step kernel, which dots every tap
    // against its dilated look-back slot. Slots the sequence has not
    // reached yet still hold their padding — exactly the implicit causal
    // padding of the batched kernels.
    const T* x = vec(op.in0);
    const index_t span = detail::ring_span(op);
    const index_t pos = t % span;
    T* ring = rings + layout.ring_off[i];
    const index_t groups = detail::Program<T>::row_groups(op.c_in);
    for (index_t g = 0; g < groups; ++g) {
      std::copy(x + g * kGroup, x + (g + 1) * kGroup,
                ring + (g * span + pos) * kGroup);
    }
    step_conv(op, prog, prog.ops[i], ring, vec(op.out), out, span, pos);
  }
  store_output(vec(output_), output, output_channels());
  ++ctx.stream_t_;
}

template void CompiledPlan::run_step(const detail::Program<float>&,
                                     const float*, float*,
                                     ExecutionContext&) const;
template void CompiledPlan::run_step(const detail::Program<std::uint8_t>&,
                                     const float*, float*,
                                     ExecutionContext&) const;

}  // namespace pit::runtime
