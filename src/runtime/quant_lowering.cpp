// Int8 lowering of a CompiledPlan: calibration, per-value quantization
// parameters, the u8 program's layout (through the same planner as the
// fp32 program: CompiledPlan::plan_layout), per-op requantize-constant
// emission, error propagation, and the lowering-time kernel binding that
// resolves every quantized op to a concrete registry kernel exactly once.
// Execution lives in the shared executors, executor_batched.cpp and
// executor_step.cpp.
#include "runtime/quantize_plan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "nn/kernels/registry.hpp"
#include "runtime/arena.hpp"
#include "runtime/executor_detail.hpp"
#include "runtime/verify.hpp"
#include "tensor/error.hpp"

namespace pit::runtime {

namespace {
using nn::kernels::kQuantCiGroup;
using nn::kernels::kQuantCo;
using nn::kernels::quant_groups;
}  // namespace

/// Friend of CompiledPlan: builds the u8 program onto a copy of the fp32
/// plan, and runs the per-layer fp32-vs-int8 comparison.
class QuantizedCompiler {
 public:
  static std::shared_ptr<const CompiledPlan> quantize(
      const CompiledPlan& src, const data::DataLoader& calib,
      const QuantizeOptions& options);
  static std::vector<QuantLayerDelta> compare(const CompiledPlan& q,
                                              const Tensor& input);

 private:
  static std::string op_desc(const detail::Op& op);
};

std::string QuantizedCompiler::op_desc(const detail::Op& op) {
  std::ostringstream os;
  switch (op.kind) {
    case detail::OpKind::kConv:
      os << "conv " << op.c_in << "->" << op.c_out << " k" << op.k << " d"
         << op.dilation;
      break;
    case detail::OpKind::kLinear:
      os << "linear " << op.c_in << "->" << op.c_out;
      break;
    case detail::OpKind::kAvgPool:
      os << "avg_pool k" << op.k << " s" << op.stride;
      break;
    case detail::OpKind::kAdd:
      os << "add";
      break;
  }
  if (op.relu) {
    os << " +relu";
  }
  return os.str();
}

std::shared_ptr<const CompiledPlan> QuantizedCompiler::quantize(
    const CompiledPlan& src, const data::DataLoader& calib,
    const QuantizeOptions& options) {
  // Only the stride-1 packed conv path is lowered (every conv of the
  // reference TCNs after freezing; strided downsampling happens in pools).
  for (const detail::Op& op : src.ops_) {
    PIT_CHECK(op.kind != detail::OpKind::kConv || detail::packed_conv(op),
              "quantize_plan: strided convs have no int8 lowering");
  }

  // ---- calibrate ---------------------------------------------------------
  const std::size_t nvals = src.values_.size();
  std::vector<quant::RangeObserver> observers(
      nvals, quant::RangeObserver(options.observer));
  const CompiledPlan::ValueHook hook =
      [&](ValueId v, const float* data, index_t rows, index_t steps,
          index_t stride) {
        quant::RangeObserver& obs =
            observers[static_cast<std::size_t>(
                src.root_[static_cast<std::size_t>(v)])];
        if (stride == steps) {
          obs.observe({data, static_cast<std::size_t>(rows * steps)});
        } else {
          for (index_t r = 0; r < rows; ++r) {
            obs.observe({data + r * stride,
                         static_cast<std::size_t>(steps)});
          }
        }
      };
  const index_t batches =
      std::min(calib.num_batches(), options.max_calibration_batches);
  PIT_CHECK(batches >= 1, "quantize_plan: empty calibration loader");
  {
    ExecutionContext cctx;
    for (index_t bi = 0; bi < batches; ++bi) {
      src.run_batched(src.fp32_, calib.batch(bi).inputs, cctx, &hook);
    }
  }

  // The u8 program goes onto a copy whose fp32 program stays intact.
  // Streamability survives the lowering: a stride-1-conv/add plan streams
  // its u8 program through the rings plan_layout() lays out.
  CompiledPlan q(src);
  detail::Program<std::uint8_t>& u8 = q.u8_.emplace();
  q.plan_layout(u8);
  const auto root = [&](ValueId v) {
    return static_cast<std::size_t>(q.root_[static_cast<std::size_t>(v)]);
  };
  const std::size_t in_root = root(q.input_);
  const std::size_t out_root = root(q.output_);

  // ---- per-value quantization parameters and clip error ------------------
  u8.qparams.assign(nvals, quant::QuantParams{});
  std::vector<double> clip_err(nvals, 0.0);
  std::vector<double> xmax(nvals, 0.0);
  for (std::size_t v = 0; v < nvals; ++v) {
    if (q.root_[v] != static_cast<ValueId>(v) || !observers[v].seen()) {
      continue;
    }
    u8.qparams[v] = observers[v].affine_u8_params();
    float lo = 0.0F;
    float hi = 0.0F;
    observers[v].calibrated_range(&lo, &hi);
    clip_err[v] = std::max(
        0.0, std::max(static_cast<double>(lo) - observers[v].min(),
                      static_cast<double>(observers[v].max()) - hi));
    xmax[v] = std::max(std::fabs(static_cast<double>(observers[v].min())),
                       std::fabs(static_cast<double>(observers[v].max())));
  }
  // Propagate to aliases (reporting convenience).
  for (std::size_t v = 0; v < nvals; ++v) {
    u8.qparams[v] = u8.qparams[root(static_cast<ValueId>(v))];
  }

  // ---- per-op lowering + error propagation -------------------------------
  std::vector<double> bound(nvals, 0.0);   // worst-case |int8 - fp32|
  std::vector<double> var(nvals, 0.0);     // RMS model variance
  {
    const double s_in = u8.qparams[in_root].scale;
    bound[in_root] = s_in / 2.0 + clip_err[in_root];
    var[in_root] = s_in * s_in / 12.0;
  }

  u8.ops.assign(q.ops_.size(), detail::QuantOp{});
  for (std::size_t i = 0; i < q.ops_.size(); ++i) {
    const detail::Op& op = q.ops_[i];
    const detail::F32Op& f32 = q.fp32_.ops[i];
    detail::QuantOp& qop = u8.ops[i];
    const std::size_t rin = root(op.in0);
    const std::size_t rout = root(op.out);
    qop.out_float = rout == out_root;
    const quant::QuantParams px = u8.qparams[rin];
    const quant::QuantParams py = u8.qparams[rout];
    const double e_in = bound[rin];
    const double e_store =
        qop.out_float ? 0.0 : py.scale / 2.0 + clip_err[rout];
    const double var_store =
        qop.out_float
            ? 0.0
            : static_cast<double>(py.scale) * py.scale / 12.0 +
                  clip_err[rout] * clip_err[rout];
    qop.out_lo = (!qop.out_float && op.relu) ? py.zero_point : 0;

    if (op.kind == detail::OpKind::kConv ||
        op.kind == detail::OpKind::kLinear) {
      const bool is_conv = op.kind == detail::OpKind::kConv;
      // Recover the folded float weights from the fp32 program.
      const index_t cnt = op.c_in * (is_conv ? op.k : 1);
      index_t f4 = cnt;  // quantized feature count (pad lanes included)
      const float* wsrc = q.fp32_.params.data(f32.w_blk);
      std::vector<float> w(static_cast<std::size_t>(op.c_out * cnt));
      if (is_conv) {
        // Undo the fp32 inference packing: wp[(ci*k + i)*co_r4 + co].
        const index_t co_r4 = (op.c_out + nn::kernels::kPackCo - 1) /
                              nn::kernels::kPackCo * nn::kernels::kPackCo;
        for (index_t co = 0; co < op.c_out; ++co) {
          for (index_t ci = 0; ci < op.c_in; ++ci) {
            for (index_t tap = 0; tap < op.k; ++tap) {
              w[static_cast<std::size_t>((co * op.c_in + ci) * op.k + tap)] =
                  wsrc[static_cast<std::size_t>(
                      (ci * op.k + tap) * co_r4 + co)];
            }
          }
        }
      } else {
        // Permute the dense (o, f) columns into the flattened C4 byte
        // order of the input value (pad lanes get zero columns).
        const index_t c_r = q.values_[rin].channels;
        const index_t t_r = q.values_[rin].steps;
        PIT_CHECK(op.c_in == c_r * t_r,
                  "quantize_plan: linear features " << op.c_in
                                                    << " != " << c_r << "x"
                                                    << t_r);
        f4 = quant_groups(c_r) * kQuantCiGroup * t_r;
        w.assign(static_cast<std::size_t>(op.c_out * f4), 0.0F);
        for (index_t o = 0; o < op.c_out; ++o) {
          for (index_t ch = 0; ch < c_r; ++ch) {
            for (index_t ts = 0; ts < t_r; ++ts) {
              w[static_cast<std::size_t>(
                  o * f4 + (ch / kQuantCiGroup) * kQuantCiGroup * t_r +
                  kQuantCiGroup * ts + ch % kQuantCiGroup)] =
                  wsrc[static_cast<std::size_t>(o * op.c_in + ch * t_r +
                                                ts)];
            }
          }
        }
      }
      const index_t row = is_conv ? cnt : f4;

      // Per-output-channel symmetric s8 quantization of the weights.
      std::vector<std::int8_t> wq(w.size());
      std::vector<float> s_w(static_cast<std::size_t>(op.c_out));
      std::vector<std::int32_t> wsum(static_cast<std::size_t>(op.c_out), 0);
      double worst_term = 0.0;
      double worst_var = 0.0;
      for (index_t co = 0; co < op.c_out; ++co) {
        const float* wrow = w.data() + co * row;
        float max_abs = 0.0F;
        double l1 = 0.0;
        double l2 = 0.0;
        for (index_t e = 0; e < row; ++e) {
          max_abs = std::max(max_abs, std::fabs(wrow[e]));
          l1 += std::fabs(static_cast<double>(wrow[e]));
          l2 += static_cast<double>(wrow[e]) * wrow[e];
        }
        const float scale =
            max_abs > 0.0F ? std::max(max_abs / 127.0F, quant::kMinScale)
                           : 1.0F;
        s_w[static_cast<std::size_t>(co)] = scale;
        for (index_t e = 0; e < row; ++e) {
          const auto v = static_cast<std::int32_t>(std::clamp<long>(
              std::lrintf(wrow[e] / scale), -127, 127));
          wq[static_cast<std::size_t>(co * row + e)] =
              static_cast<std::int8_t>(v);
          wsum[static_cast<std::size_t>(co)] += v;
        }
        // |Δy| <= Σ|w||Δx| + Σ|Δw|(|x| + |Δx|), |Δw| <= s_w/2 per weight.
        const double dw = scale / 2.0;
        worst_term = std::max(
            worst_term, l1 * e_in + dw * static_cast<double>(cnt) *
                                        (xmax[rin] + e_in));
        worst_var = std::max(
            worst_var,
            l2 * var[rin] + dw * dw / 3.0 * static_cast<double>(cnt) *
                                (xmax[rin] / 2.0) * (xmax[rin] / 2.0));
      }

      // Pack and emit the requantize constants (bias, zero-point
      // correction, and output zero point folded in).
      nn::kernels::ConvDims wd{};
      wd.c_in = is_conv ? op.c_in : f4;
      wd.c_out = op.c_out;
      wd.k = is_conv ? op.k : 1;
      // s8 weights depend only on the fp32 weights (not on calibration),
      // so interning through the shared pool dedups them across versions
      // whose layer weights are bytewise identical.
      std::vector<std::int8_t> packed(static_cast<std::size_t>(
          nn::kernels::packed_weight_bytes_i8(wd)));
      nn::kernels::pack_conv_weight_i8(wq.data(), wd, packed.data());
      qop.w_blk = u8.weights.add(std::move(packed), options.pool);

      const index_t co_round =
          (op.c_out + kQuantCo - 1) / kQuantCo * kQuantCo;
      qop.m_off = static_cast<index_t>(u8.consts.size());
      qop.b_off = qop.m_off + co_round;
      u8.consts.resize(u8.consts.size() +
                       2 * static_cast<std::size_t>(co_round));
      float* mv = u8.consts.data() + qop.m_off;
      float* bv = u8.consts.data() + qop.b_off;
      for (index_t co = 0; co < co_round; ++co) {
        if (co >= op.c_out) {
          mv[co] = 0.0F;
          bv[co] = qop.out_float ? 0.0F
                                 : static_cast<float>(py.zero_point);
          continue;
        }
        const float bias =
            f32.b_blk >= 0 ? q.fp32_.params.data(f32.b_blk)[co] : 0.0F;
        const float sw = s_w[static_cast<std::size_t>(co)];
        const auto ws =
            static_cast<float>(wsum[static_cast<std::size_t>(co)]);
        if (qop.out_float) {
          mv[co] = px.scale * sw;
          bv[co] = bias - mv[co] * static_cast<float>(px.zero_point) * ws;
        } else {
          mv[co] = px.scale * sw / py.scale;
          bv[co] = bias / py.scale + static_cast<float>(py.zero_point) -
                   mv[co] * static_cast<float>(px.zero_point) * ws;
        }
      }
      bound[rout] = worst_term + e_store;
      var[rout] = worst_var + var_store;
    } else if (op.kind == detail::OpKind::kAvgPool) {
      const auto inv_k = 1.0F / static_cast<float>(op.k);
      if (qop.out_float) {
        qop.a_mul = px.scale * inv_k;
        qop.c_add = -px.scale * static_cast<float>(px.zero_point);
      } else {
        qop.a_mul = px.scale * inv_k / py.scale;
        qop.c_add = static_cast<float>(py.zero_point) -
                    px.scale / py.scale *
                        static_cast<float>(px.zero_point);
      }
      bound[rout] = e_in + e_store;
      var[rout] = var[rin] + var_store;
    } else {  // kAdd
      const std::size_t rb = root(op.in1);
      const quant::QuantParams pb = u8.qparams[rb];
      if (qop.out_float) {
        qop.a_mul = px.scale;
        qop.b_mul = pb.scale;
        qop.c_add = -px.scale * static_cast<float>(px.zero_point) -
                    pb.scale * static_cast<float>(pb.zero_point);
      } else {
        qop.a_mul = px.scale / py.scale;
        qop.b_mul = pb.scale / py.scale;
        qop.c_add = static_cast<float>(py.zero_point) -
                    qop.a_mul * static_cast<float>(px.zero_point) -
                    qop.b_mul * static_cast<float>(pb.zero_point);
      }
      bound[rout] = e_in + bound[rb] + e_store;
      var[rout] = var[rin] + var[rb] + var_store;
    }
  }

  // ---- kernel binding ----------------------------------------------------
  // Resolve every lowered op to concrete i8 registry kernels, once. The
  // quantized executors only ever call these pointers — no per-call
  // variant table walks.
  const auto& reg = nn::kernels::Registry::instance();
  {
    const auto stage_k = reg.stage_i8();
    u8.stage_fn = stage_k.fn;
    u8.stage_meta = stage_k.meta;
  }
  for (std::size_t i = 0; i < q.ops_.size(); ++i) {
    const detail::Op& op = q.ops_[i];
    detail::QuantOp& qop = u8.ops[i];
    switch (op.kind) {
      case detail::OpKind::kConv: {
        const nn::kernels::ConvSig sig{op.k, op.c_in, op.c_out};
        const auto conv = reg.conv_packed_i8(sig);
        qop.bind.conv = conv.fn;
        qop.bind.meta = conv.meta;
        const auto step = reg.conv_step_i8(sig);
        qop.bind.step = step.fn;
        qop.bind.step_meta = step.meta;
        break;
      }
      case detail::OpKind::kLinear: {
        // The i8 linear is the k = 1, t = 1 case of the quantized conv
        // (one contiguous run of f4 feature quads) — bind that signature.
        const std::size_t rv = root(op.in0);
        const index_t f4 = quant_groups(q.values_[rv].channels) *
                           kQuantCiGroup * q.values_[rv].steps;
        const auto lin = reg.conv_packed_i8({1, f4, op.c_out});
        qop.bind.conv = lin.fn;
        qop.bind.meta = lin.meta;
        break;
      }
      case detail::OpKind::kAvgPool:
        // Executed by a loop inside the quantized executor itself.
        qop.bind.meta = &nn::kernels::Registry::inline_meta();
        break;
      case detail::OpKind::kAdd: {
        const auto add = reg.add_i8();
        qop.bind.add = add.fn;
        // A dequantizing (out_float) add runs the executor's inline
        // float-store loop instead of the u8 kernel.
        qop.bind.meta = qop.out_float
                            ? &nn::kernels::Registry::inline_meta()
                            : add.meta;
        break;
      }
    }
  }

  u8.error_bound = bound[out_root];
  u8.error_estimate = std::sqrt(var[out_root]);
  u8.value_bound = std::move(bound);

  // Re-prove the full memory model over the lowered program: the fp32
  // layouts survived intact AND the int8 byte arena / bindings hold.
  analysis::verify_or_throw(q, "quantize_plan");
  return std::make_shared<const CompiledPlan>(std::move(q));
}

std::vector<QuantLayerDelta> QuantizedCompiler::compare(
    const CompiledPlan& q, const Tensor& input) {
  PIT_CHECK(q.u8_, "compare_quantized_layers: plan is not quantized");
  const detail::Program<std::uint8_t>& u8 = *q.u8_;
  std::unordered_map<ValueId, std::vector<float>> reference;
  const CompiledPlan::ValueHook capture =
      [&](ValueId v, const float* data, index_t rows, index_t steps,
          index_t stride) {
        std::vector<float>& dst = reference[v];
        dst.resize(static_cast<std::size_t>(rows * steps));
        for (index_t r = 0; r < rows; ++r) {
          std::copy(data + r * stride, data + r * stride + steps,
                    dst.data() + r * steps);
        }
      };
  ExecutionContext ref_ctx;
  q.run_batched(q.fp32_, input, ref_ctx, &capture);

  std::vector<QuantLayerDelta> deltas;
  std::unordered_map<ValueId, std::size_t> op_of;
  for (std::size_t i = 0; i < q.ops_.size(); ++i) {
    op_of[q.ops_[i].out] = i;
  }
  const CompiledPlan::ValueHook compare_hook =
      [&](ValueId v, const float* data, index_t rows, index_t steps,
          index_t stride) {
        const auto it = op_of.find(v);
        if (it == op_of.end()) {
          return;  // the input value
        }
        const std::vector<float>& ref = reference.at(v);
        double worst = 0.0;
        double total = 0.0;
        for (index_t r = 0; r < rows; ++r) {
          for (index_t s = 0; s < steps; ++s) {
            const double diff = std::fabs(
                static_cast<double>(data[r * stride + s]) -
                ref[static_cast<std::size_t>(r * steps + s)]);
            worst = std::max(worst, diff);
            total += diff;
          }
        }
        QuantLayerDelta d;
        d.op = it->second;
        d.desc = op_desc(q.ops_[it->second]);
        d.max_abs_err = worst;
        d.mean_abs_err =
            total / static_cast<double>(std::max<index_t>(rows * steps, 1));
        d.bound = u8.value_bound[static_cast<std::size_t>(
            q.root_[static_cast<std::size_t>(v)])];
        deltas.push_back(d);
      };
  ExecutionContext q_ctx;
  q.run_batched(u8, input, q_ctx, &compare_hook);
  std::sort(deltas.begin(), deltas.end(),
            [](const QuantLayerDelta& a, const QuantLayerDelta& b) {
              return a.op < b.op;
            });
  return deltas;
}

// ---- Public API ----------------------------------------------------------

std::shared_ptr<const CompiledPlan> quantize_plan(
    const CompiledPlan& plan, const data::DataLoader& calib,
    const QuantizeOptions& options) {
  return QuantizedCompiler::quantize(plan, calib, options);
}

std::shared_ptr<const CompiledPlan> compile_quantized(
    const models::TempoNet& model, const data::DataLoader& calib,
    const QuantizeOptions& options) {
  return quantize_plan(*compile_plan(model), calib, options);
}

std::shared_ptr<const CompiledPlan> compile_quantized(
    const models::ResTCN& model, index_t input_steps,
    const data::DataLoader& calib, const QuantizeOptions& options) {
  return quantize_plan(*compile_plan(model, input_steps), calib, options);
}

std::vector<QuantLayerDelta> compare_quantized_layers(
    const CompiledPlan& quantized, const Tensor& input) {
  return QuantizedCompiler::compare(quantized, input);
}

}  // namespace pit::runtime
