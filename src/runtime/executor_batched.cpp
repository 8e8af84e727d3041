// Batched execution of a CompiledPlan: one executor template runs either
// element type's program over its per-sample-planned arena. The shared
// part — input check, arena sizing, kPoison/kCanary hardening, input
// staging, lead refill, and the value hook — is written once; what differs
// per element type (staging conversion, the op bodies and their stores,
// the hook's float view) sits in the small overloads below. Every
// kernel-backed op runs through the pointer bound at plan-build / lowering
// time (detail::OpBinding / detail::QuantBinding) — this TU performs no
// backend resolution and never consults the registry.
#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "nn/kernels/registry.hpp"
#include "runtime/compiled_net.hpp"
#include "runtime/executor_detail.hpp"
#include "runtime/hardening.hpp"
#include "tensor/error.hpp"

namespace pit::runtime {

namespace {

using nn::kernels::kQuantCiGroup;
using nn::kernels::quant_groups;

// Below this many output elements an op runs serially: the OpenMP fork
// costs more than the loop (same spirit as the kernel engine's MAC
// threshold).
constexpr index_t kParallelMinElems = 16384;

/// An operand's buffer at run time: `p` points at the logical (row 0,
/// t = 0) element; consecutive rows are `kGroup * stride` elements apart
/// (`stride` in time steps).
template <typename T>
struct RowSpan {
  T* p = nullptr;
  index_t stride = 0;
};

int clamp_u8(long q, int lo) {
  return static_cast<int>(std::clamp(q, static_cast<long>(lo), 255L));
}

/// One op's operands at run time.
template <typename T>
struct Operands {
  RowSpan<T> x, x2, y;
  /// The dense float output tensor when this op produces the plan output
  /// (a u8 program stores it dequantized; fp32's `y` is the same tensor).
  float* out = nullptr;
  bool x_padded = false;   // fp32 packed conv: x carries lead and slack
  index_t x_elems = 0;     // u8 linear: elements per sample of x's root
};

// ---- fp32 op bodies --------------------------------------------------------

void relu_inplace(float* y, index_t count) {
#pragma omp parallel for schedule(static) if (count >= kParallelMinElems)
  for (index_t i = 0; i < count; ++i) {
    y[i] = y[i] > 0.0F ? y[i] : 0.0F;
  }
}

void exec_conv(const detail::Op& op, const detail::F32Op& lo,
               const BlockTable<float>& params, const Operands<float>& io,
               index_t n) {
  const float* w = params.data(lo.w_blk);
  const float* b = lo.b_blk >= 0 ? params.data(lo.b_blk) : nullptr;
  nn::kernels::ConvDims dims{};
  dims.n = n;
  dims.c_in = op.c_in;
  dims.c_out = op.c_out;
  dims.k = op.k;
  dims.t_in = op.t_in;
  dims.t_out = op.t_out;
  dims.dilation = op.dilation;
  dims.stride = op.stride;
  if (detail::packed_conv(op)) {
    // Stride-1 fast path: overwrite semantics with bias and ReLU fused
    // into the kernel's store — no zero-fill, no separate activation pass.
    lo.bind.conv(io.x.p, w, b, io.y.p, dims, io.x.stride, io.y.stride,
                 io.x_padded, op.relu);
    return;
  }
  // Strided convs take the training kernels (dense layouts only), which
  // accumulate: seed the output with the bias (or zero) instead of paying
  // a zero-fill plus an in-kernel bias pass.
  PIT_CHECK(io.x.stride == op.t_in && io.y.stride == op.t_out,
            "CompiledPlan: strided conv requires dense operand layouts");
  float* y = io.y.p;
  const index_t out_floats = n * op.c_out * op.t_out;
  if (b != nullptr) {
#pragma omp parallel for collapse(2) schedule(static) \
    if (out_floats >= kParallelMinElems)
    for (index_t ni = 0; ni < n; ++ni) {
      for (index_t co = 0; co < op.c_out; ++co) {
        float* row = y + (ni * op.c_out + co) * op.t_out;
        std::fill(row, row + op.t_out, b[co]);
      }
    }
  } else {
    std::fill(y, y + out_floats, 0.0F);
  }
  lo.bind.conv_train(io.x.p, w, nullptr, y, dims);
  if (op.relu) {
    relu_inplace(y, out_floats);
  }
}

void exec_avg_pool(const detail::Op& op, RowSpan<float> x, RowSpan<float> y,
                   index_t n) {
  const index_t rows = n * op.c_out;  // pooling keeps the channel count
  const float inv_k = 1.0F / static_cast<float>(op.k);
#pragma omp parallel for schedule(static) \
    if (rows * op.t_out >= kParallelMinElems)
  for (index_t r = 0; r < rows; ++r) {
    const float* xrow = x.p + r * x.stride;
    float* yrow = y.p + r * y.stride;
    for (index_t to = 0; to < op.t_out; ++to) {
      float acc = 0.0F;
      for (index_t k = 0; k < op.k; ++k) {
        acc += xrow[to * op.stride + k];
      }
      yrow[to] = acc * inv_k;
    }
  }
}

void exec_add(const detail::Op& op, RowSpan<float> a, RowSpan<float> b,
              RowSpan<float> y, index_t n) {
  const index_t rows = n * op.c_out;
  const index_t steps = op.t_out;
  const bool fuse_relu = op.relu;
#pragma omp parallel for schedule(static) \
    if (rows * steps >= kParallelMinElems)
  for (index_t r = 0; r < rows; ++r) {
    const float* arow = a.p + r * a.stride;
    const float* brow = b.p + r * b.stride;
    float* yrow = y.p + r * y.stride;
    for (index_t t = 0; t < steps; ++t) {
      const float s = arow[t] + brow[t];
      yrow[t] = fuse_relu && s < 0.0F ? 0.0F : s;
    }
  }
}

void exec_op(const detail::Op& op, const detail::Program<float>& prog,
             const detail::F32Op& lo, const Operands<float>& io, index_t n) {
  switch (op.kind) {
    case detail::OpKind::kConv:
      exec_conv(op, lo, prog.params, io, n);
      break;
    case detail::OpKind::kLinear:
      // Dense, contiguous operands — guaranteed at compile time (flatten
      // is only legal over dense storage, and dense writers cannot
      // produce padded values), so the buffers are exactly the (n, f) /
      // (n, o) matrices the kernel wants.
      lo.bind.linear(io.x.p, prog.params.data(lo.w_blk),
                     lo.b_blk >= 0 ? prog.params.data(lo.b_blk) : nullptr,
                     io.y.p, n, op.c_in, op.c_out, op.relu);
      break;
    case detail::OpKind::kAvgPool:
      exec_avg_pool(op, io.x, io.y, n);
      break;
    case detail::OpKind::kAdd:
      exec_add(op, io.x, io.x2, io.y, n);
      break;
  }
}

/// Copies the dense input into its padded arena rows (zeroed lead and
/// slack).
void stage_input(const detail::Program<float>& prog, std::size_t r,
                 const float* in, float* base, index_t n, index_t c,
                 index_t t) {
  const index_t rows = n * c;
  const index_t lead = prog.lead[r];
  const index_t stride = prog.stride[r];
#pragma omp parallel for schedule(static) \
    if (rows * stride >= kParallelMinElems)
  for (index_t row = 0; row < rows; ++row) {
    float* dst = base + row * stride;
    std::fill(dst, dst + lead, 0.0F);
    std::copy(in + row * t, in + (row + 1) * t, dst + lead);
    std::fill(dst + lead + t, dst + stride, 0.0F);
  }
}

template <typename Hook>
void emit_hook(const Hook& hook, ValueId v,
               const detail::Value& val, const detail::Program<float>&,
               std::size_t, RowSpan<float> s, index_t n,
               std::vector<float>&) {
  hook(v, s.p, n * val.channels, val.steps, s.stride);
}

// ---- u8 op bodies ----------------------------------------------------------

/// Avg-pool over u8 group rows with the requantizing (or dequantizing)
/// store folded into a_mul / c_add.
void exec_avg_pool(const detail::Op& op, const detail::QuantOp& qop,
                   const Operands<std::uint8_t>& io, index_t n) {
  const RowSpan<std::uint8_t> x = io.x;
  const RowSpan<std::uint8_t> y = io.y;
  float* out = io.out;
  const index_t groups = quant_groups(op.c_out);
  const index_t rows = n * groups;
  const float a_mul = qop.a_mul;
  const float c_add = qop.c_add;
#pragma omp parallel for schedule(static) \
    if (rows * op.t_out * kQuantCiGroup >= kParallelMinElems)
  for (index_t r = 0; r < rows; ++r) {
    const std::uint8_t* xrow = x.p + r * kQuantCiGroup * x.stride;
    for (index_t to = 0; to < op.t_out; ++to) {
      for (index_t j = 0; j < kQuantCiGroup; ++j) {
        std::int32_t sum = 0;
        for (index_t w = 0; w < op.k; ++w) {
          sum += xrow[kQuantCiGroup * (to * op.stride + w) + j];
        }
        const float v = a_mul * static_cast<float>(sum) + c_add;
        if (out != nullptr) {
          const index_t ni = r / groups;
          const index_t ch = (r % groups) * kQuantCiGroup + j;
          if (ch < op.c_out) {
            out[(ni * op.c_out + ch) * op.t_out + to] = v;
          }
        } else {
          y.p[r * kQuantCiGroup * y.stride + kQuantCiGroup * to + j] =
              static_cast<std::uint8_t>(clamp_u8(std::lrintf(v), qop.out_lo));
        }
      }
    }
  }
}

/// Dequantizing add (this add produces the plan output): rare, so a plain
/// loop over the dense float rows suffices.
void exec_add_float(const detail::Op& op, const detail::QuantOp& qop,
                    const Operands<std::uint8_t>& io, index_t n) {
  const RowSpan<std::uint8_t> a = io.x;
  const RowSpan<std::uint8_t> b = io.x2;
  float* out = io.out;
  const index_t groups = quant_groups(op.c_out);
  const index_t rows = n * groups;
  const index_t steps = op.t_out;
  const float a_mul = qop.a_mul;
  const float b_mul = qop.b_mul;
  const float c_add = qop.c_add;
  const bool relu = op.relu;
#pragma omp parallel for schedule(static) \
    if (rows * steps * kQuantCiGroup >= kParallelMinElems)
  for (index_t r = 0; r < rows; ++r) {
    const std::uint8_t* arow = a.p + r * kQuantCiGroup * a.stride;
    const std::uint8_t* brow = b.p + r * kQuantCiGroup * b.stride;
    for (index_t ts = 0; ts < steps; ++ts) {
      for (index_t j = 0; j < kQuantCiGroup; ++j) {
        const index_t off = kQuantCiGroup * ts + j;
        float v = a_mul * static_cast<float>(arow[off]) +
                  b_mul * static_cast<float>(brow[off]) + c_add;
        if (relu && v < 0.0F) {
          v = 0.0F;
        }
        const index_t ni = r / groups;
        const index_t ch = (r % groups) * kQuantCiGroup + j;
        if (ch < op.c_out) {
          out[(ni * op.c_out + ch) * steps + ts] = v;
        }
      }
    }
  }
}

void exec_op(const detail::Op& op, const detail::Program<std::uint8_t>& prog,
             const detail::QuantOp& qop, const Operands<std::uint8_t>& io,
             index_t n) {
  switch (op.kind) {
    case detail::OpKind::kConv:
    case detail::OpKind::kLinear: {
      // The linear's bound kernel is the k = 1, t = 1 conv over one
      // contiguous run of x_elems feature quads per sample.
      const bool conv = op.kind == detail::OpKind::kConv;
      nn::kernels::ConvDims dims{};
      dims.n = n;
      dims.c_in = conv ? op.c_in : io.x_elems;
      dims.c_out = op.c_out;
      dims.k = conv ? op.k : 1;
      dims.t_in = op.t_in;
      dims.t_out = op.t_out;
      dims.dilation = conv ? op.dilation : 1;
      dims.stride = 1;
      const index_t y_stride =
          !conv ? 1 : (io.out != nullptr ? op.t_out : io.y.stride);
      qop.bind.conv(io.x.p, prog.weights.data(qop.w_blk),
                    prog.consts.data() + qop.m_off,
                    prog.consts.data() + qop.b_off, io.y.p, io.out, dims,
                    conv ? io.x.stride : 1, y_stride, op.relu, qop.out_lo);
      break;
    }
    case detail::OpKind::kAvgPool:
      exec_avg_pool(op, qop, io, n);
      break;
    case detail::OpKind::kAdd:
      if (io.out != nullptr) {
        exec_add_float(op, qop, io, n);
      } else {
        qop.bind.add(io.x.p, io.x2.p, io.y.p, n * quant_groups(op.c_out),
                     op.t_out, io.x.stride, io.x2.stride, io.y.stride,
                     qop.a_mul, qop.b_mul, qop.c_add, qop.out_lo);
      }
      break;
  }
}

/// Quantizes the float input into u8 group rows, the causal lead filled
/// with the zero-point byte (real 0.0).
void stage_input(const detail::Program<std::uint8_t>& prog, std::size_t r,
                 const float* in, std::uint8_t* base, index_t n, index_t c,
                 index_t t) {
  const quant::QuantParams& qp = prog.qparams[r];
  prog.stage_fn(in, base, n, c, t, prog.lead[r], prog.stride[r],
                1.0F / qp.scale, qp.zero_point);
}

/// Dequantizes a produced value into a dense float scratch for the hook.
template <typename Hook>
void emit_hook(const Hook& hook, ValueId v, const detail::Value& val,
               const detail::Program<std::uint8_t>& prog, std::size_t r,
               RowSpan<std::uint8_t> s, index_t n,
               std::vector<float>& scratch) {
  const quant::QuantParams& qp = prog.qparams[r];
  scratch.assign(static_cast<std::size_t>(n * val.numel()), 0.0F);
  const index_t groups = quant_groups(val.channels);
  for (index_t ni = 0; ni < n; ++ni) {
    const std::uint8_t* sample = s.p + ni * groups * kQuantCiGroup * s.stride;
    for (index_t ch = 0; ch < val.channels; ++ch) {
      const std::uint8_t* grow =
          sample + (ch / kQuantCiGroup) * kQuantCiGroup * s.stride;
      float* drow = scratch.data() + (ni * val.channels + ch) * val.steps;
      for (index_t ts = 0; ts < val.steps; ++ts) {
        drow[ts] = qp.dequantize(grow[kQuantCiGroup * ts + ch % kQuantCiGroup]);
      }
    }
  }
  hook(v, scratch.data(), n * val.channels, val.steps, val.steps);
}

}  // namespace

Tensor CompiledPlan::forward(const Tensor& input,
                             ExecutionContext& ctx) const {
  // One entry point for both programs: serving layers run a quantized
  // plan unchanged.
  return u8_ ? run_batched(*u8_, input, ctx, nullptr)
             : run_batched(fp32_, input, ctx, nullptr);
}

template <typename T>
Tensor CompiledPlan::run_batched(const detail::Program<T>& prog,
                                 const Tensor& input, ExecutionContext& ctx,
                                 const ValueHook* hook) const {
  using Data = detail::ProgramData<T>;
  constexpr index_t kGroup = Data::kGroup;
  constexpr const char* kWhere =
      std::is_same_v<T, float> ? "forward fp32" : "forward u8";
  const index_t c = input_channels();
  const index_t t = input_steps();
  const bool flat_ok = t == 1 && input.rank() == 2 && input.dim(1) == c;
  PIT_CHECK(flat_ok || (input.rank() == 3 && input.dim(1) == c &&
                        input.dim(2) == t),
            "CompiledPlan: expected (N, " << c << ", " << t << "), got "
                                          << input.shape().to_string());
  const index_t n = input.dim(0);
  const auto needed = static_cast<std::size_t>(prog.arena * n);
  // Dynamic enforcement of the verified memory model (runtime/hardening.hpp):
  // kPoison shadows the whole arena and re-opens exactly each op's declared
  // operand regions; kCanary pads the arena tail and each output row's
  // slack with a pattern re-checked after every op.
  const hardening::Mode hmode = hardening::mode();
  const std::size_t pad_bytes =
      static_cast<std::size_t>(hardening::kArenaTailPadFloats) * sizeof(float);
  const std::size_t pad = pad_bytes / sizeof(T);
  auto& arena_buf = ctx.buffers<T>().arena;
  const std::size_t reserve =
      hmode == hardening::Mode::kCanary ? needed + pad : needed;
  if (arena_buf.size() < reserve) {
    arena_buf.resize(reserve);
  }
  T* arena = arena_buf.data();
  // The arena vector must never stay poisoned past this forward (resize,
  // destruction, and the next forward's writes need clean shadow) — RAII
  // so a throwing op cannot leak poisoned heap memory.
  hardening::UnpoisonOnExit unpoison_guard(arena, needed * sizeof(T));
  if (hmode == hardening::Mode::kPoison) {
    hardening::poison(arena, needed * sizeof(T));
  } else if (hmode == hardening::Mode::kCanary) {
    hardening::fill_canary(arena + needed, pad_bytes);
  }

  const detail::Value& out_value =
      values_[static_cast<std::size_t>(output_)];
  Tensor out = out_value.steps == 1
                   ? Tensor::empty(Shape{n, out_value.channels})
                   : Tensor::empty(
                         Shape{n, out_value.channels, out_value.steps});
  const float* in_data = input.data();
  float* out_data = out.data();

  const auto root = [&](ValueId v) {
    return static_cast<std::size_t>(root_[static_cast<std::size_t>(v)]);
  };
  const std::size_t in_root = root(input_);
  const std::size_t out_root = root(output_);
  // Arena storage of a root, or nullptr when it lives in an external
  // buffer (the caller's input unless staged, the output tensor).
  const auto base = [&](std::size_t r) -> T* {
    return prog.offset[r] >= 0 ? arena + prog.offset[r] * n : nullptr;
  };
  const auto rows = [&](std::size_t r) {
    return n * detail::Program<T>::row_groups(values_[r].channels);
  };
  // Resolves a value to its run-time buffer. Aliases share their root's
  // storage; fp32 ops read the caller's input and write the output
  // tensor in place.
  const auto span = [&](ValueId v) -> RowSpan<T> {
    const std::size_t r = root(v);
    if (T* b = base(r)) {
      return {b + kGroup * prog.lead[r], prog.stride[r]};
    }
    if constexpr (std::is_same_v<T, float>) {
      if (r == in_root) {
        return {const_cast<float*>(in_data), values_[r].steps};
      }
      if (r == out_root) {
        return {out_data, values_[r].steps};
      }
    }
    PIT_CHECK(false, "CompiledPlan: value " << v << " has no " << Data::kName
                                            << " storage");
    return {};
  };

  // Stage the input into its arena rows when the program needs it there.
  if (T* b = base(in_root)) {
    // Staging overwrites every element of the region (lead, data, and
    // slack), so the whole block becomes legally addressable here.
    hardening::unpoison(b, static_cast<std::size_t>(
                               rows(in_root) * kGroup * prog.stride[in_root]) *
                               sizeof(T));
    stage_input(prog, in_root, in_data, b, n, c, t);
  }

  // An op's INPUT region is fully readable — lead, data, and slack (the
  // packed kernels' declared read footprint covers the whole row).
  const auto open_input = [&](ValueId v) {
    const std::size_t r = root(v);
    if (T* b = base(r)) {
      hardening::unpoison(
          b, static_cast<std::size_t>(rows(r) * kGroup * prog.stride[r]) *
                 sizeof(T));
    }
  };
  // An op's OUTPUT rows open up to their declared write footprint only:
  // lead + data stay writable, the per-row tail slack is (re-)poisoned —
  // arena reuse may have legitimately opened these bytes for an earlier
  // reader — so an out-of-footprint store trips ASan with the faulting
  // kernel frame.
  const auto open_output = [&](ValueId v) {
    const std::size_t r = root(v);
    T* b = base(r);
    if (b == nullptr) {
      return;
    }
    const index_t nrows = rows(r);
    const index_t row = kGroup * prog.stride[r];
    const index_t tail = kGroup * prog.slack[r];
    hardening::unpoison_rows(b, nrows, row, tail);
    for (index_t i = 0; tail > 0 && i < nrows; ++i) {
      hardening::poison(b + i * row + row - tail,
                        static_cast<std::size_t>(tail) * sizeof(T));
    }
  };
  // kCanary: pattern-fill the output rows' slack before the kernel runs,
  // re-check it afterwards.
  const auto canary_output = [&](ValueId v, int check_op) {
    const std::size_t r = root(v);
    T* b = base(r);
    if (b == nullptr || prog.slack[r] == 0) {
      return;
    }
    const index_t nrows = rows(r);
    const index_t row = kGroup * prog.stride[r];
    const index_t tail = kGroup * prog.slack[r];
    const auto bytes = static_cast<std::size_t>(tail) * sizeof(T);
    for (index_t i = 0; i < nrows; ++i) {
      T* slack = b + i * row + row - tail;
      if (check_op < 0) {
        hardening::fill_canary(slack, bytes);
      } else if (!hardening::check_canary(slack, bytes)) {
        hardening::raise_canary_failure(kWhere, check_op,
                                        static_cast<int>(r),
                                        i * row + row - tail, i * row + row);
      }
    }
  };
  // Refills a freshly produced value's lead with the causal padding (arena
  // reuse may have clobbered it; its conv consumer reads it).
  const auto refill_lead = [&](ValueId v) {
    const std::size_t r = root(v);
    T* b = base(r);
    if (b == nullptr || prog.lead[r] == 0) {
      return;
    }
    const T fill = prog.pad(r);
    const index_t nrows = rows(r);
    const index_t row = kGroup * prog.stride[r];
    const index_t lead = kGroup * prog.lead[r];
    for (index_t i = 0; i < nrows; ++i) {
      std::fill(b + i * row, b + i * row + lead, fill);
    }
  };

  if (hook != nullptr) {
    (*hook)(input_, in_data, n * c, t, t);
  }
  std::vector<float> scratch;  // dequantized hook view of u8 values
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const detail::Op& op = ops_[i];
    if (hmode == hardening::Mode::kPoison) {
      open_input(op.in0);
      if (op.in1 >= 0) {
        open_input(op.in1);
      }
      open_output(op.out);
    } else if (hmode == hardening::Mode::kCanary) {
      canary_output(op.out, -1);
    }
    Operands<T> io;
    io.x = span(op.in0);
    if (op.in1 >= 0) {
      io.x2 = span(op.in1);
    }
    io.out = root(op.out) == out_root ? out_data : nullptr;
    if (std::is_same_v<T, float> || io.out == nullptr) {
      io.y = span(op.out);
    }
    const std::size_t rx = root(op.in0);
    if (detail::packed_conv(op)) {
      io.x_padded = base(rx) != nullptr &&
                    prog.lead[rx] >= (op.k - 1) * op.dilation &&
                    prog.slack[rx] >= Data::kConvSlack;
    } else if (op.kind == detail::OpKind::kLinear) {
      io.x_elems = detail::Program<T>::row_groups(values_[rx].channels) *
                   kGroup * values_[rx].steps;
    }
    exec_op(op, prog, prog.ops[i], io, n);
    refill_lead(op.out);
    if (hmode == hardening::Mode::kCanary) {
      canary_output(op.out, static_cast<int>(i));
    }
    if (hook != nullptr) {
      const detail::Value& v = values_[static_cast<std::size_t>(op.out)];
      if (io.out != nullptr) {
        (*hook)(op.out, io.out, n * v.channels, v.steps, v.steps);
      } else {
        emit_hook(*hook, op.out, v, prog, root(op.out), io.y, n, scratch);
      }
    }
  }
  if (hmode == hardening::Mode::kCanary &&
      !hardening::check_canary(arena + needed, pad_bytes)) {
    hardening::raise_canary_failure(
        kWhere, -1, -1, static_cast<long long>(needed),
        static_cast<long long>(needed + pad));
  }
  return out;
}

template Tensor CompiledPlan::run_batched(const detail::Program<float>&,
                                          const Tensor&, ExecutionContext&,
                                          const ValueHook*) const;
template Tensor CompiledPlan::run_batched(
    const detail::Program<std::uint8_t>&, const Tensor&, ExecutionContext&,
    const ValueHook*) const;

}  // namespace pit::runtime
