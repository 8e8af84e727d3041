// Plan construction: module freezing, BN folding, the NetBuilder graph
// recorder, the one layout planner both element types' programs use
// (rows, arena, input staging, streaming), and the plan-build-time kernel
// binding that resolves every fp32 op to a concrete registry kernel
// exactly once. Execution lives in executor_batched.cpp and
// executor_step.cpp.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "nn/kernels/registry.hpp"
#include "runtime/arena.hpp"
#include "runtime/compiled_net.hpp"
#include "runtime/executor_detail.hpp"
#include "runtime/verify.hpp"
#include "tensor/error.hpp"

namespace pit::runtime {

FrozenConv freeze_conv(const nn::Conv1d& conv) {
  FrozenConv out;
  out.c_in = conv.in_channels();
  out.c_out = conv.out_channels();
  out.k = conv.kernel_size();
  out.dilation = conv.dilation();
  out.stride = conv.stride();
  const auto w = conv.weight().span();
  out.weight.assign(w.begin(), w.end());
  if (conv.has_bias()) {
    const auto b = conv.bias().span();
    out.bias.assign(b.begin(), b.end());
  }
  return out;
}

void fold_batchnorm(FrozenConv& conv, const nn::BatchNorm1d& bn) {
  PIT_CHECK(bn.num_features() == conv.c_out,
            "fold_batchnorm: " << bn.num_features() << " BN features for "
                               << conv.c_out << " conv channels");
  const float* g = bn.gamma().data();
  const float* beta = bn.beta().data();
  const float* mean = bn.running_mean().data();
  const float* var = bn.running_var().data();
  if (conv.bias.empty()) {
    conv.bias.assign(static_cast<std::size_t>(conv.c_out), 0.0F);
  }
  const index_t per_channel = conv.c_in * conv.k;
  for (index_t co = 0; co < conv.c_out; ++co) {
    const float scale = g[co] / std::sqrt(var[co] + bn.eps());
    float* wrow = conv.weight.data() + co * per_channel;
    for (index_t i = 0; i < per_channel; ++i) {
      wrow[i] *= scale;
    }
    conv.bias[static_cast<std::size_t>(co)] =
        scale * (conv.bias[static_cast<std::size_t>(co)] - mean[co]) +
        beta[co];
  }
}

// ---- NetBuilder ----------------------------------------------------------

ValueId NetBuilder::new_value(index_t channels, index_t steps,
                              ValueId alias_of) {
  values_.push_back({channels, steps, alias_of});
  return static_cast<ValueId>(values_.size()) - 1;
}

const detail::Value& NetBuilder::value(ValueId v) const {
  PIT_CHECK(v >= 0 && v < static_cast<ValueId>(values_.size()),
            "NetBuilder: unknown value " << v);
  return values_[static_cast<std::size_t>(v)];
}

index_t NetBuilder::push_params(const float* data, index_t count) {
  return fp32_.params.add(
      std::vector<float>(data, data + static_cast<std::size_t>(count)));
}

void NetBuilder::push_op(const detail::Op& op, index_t w_blk,
                         index_t b_blk) {
  ops_.push_back(op);
  detail::F32Op lowered;
  lowered.w_blk = w_blk;
  lowered.b_blk = b_blk;
  fp32_.ops.push_back(lowered);
}

ValueId NetBuilder::input(index_t channels, index_t steps) {
  PIT_CHECK(input_ < 0, "NetBuilder: input already declared");
  PIT_CHECK(channels >= 1 && steps >= 1,
            "NetBuilder: input " << channels << "x" << steps);
  input_ = new_value(channels, steps);
  return input_;
}

ValueId NetBuilder::conv(ValueId x, const FrozenConv& c, bool fuse_relu) {
  const detail::Value& in = value(x);
  PIT_CHECK(in.channels == c.c_in, "NetBuilder::conv: input has "
                                       << in.channels << " channels, conv "
                                       << c.c_in);
  PIT_CHECK(c.k >= 1 && c.dilation >= 1 && c.stride >= 1,
            "NetBuilder::conv: bad geometry");
  PIT_CHECK(static_cast<index_t>(c.weight.size()) == c.c_out * c.c_in * c.k,
            "NetBuilder::conv: weight size " << c.weight.size());
  PIT_CHECK(c.bias.empty() ||
                static_cast<index_t>(c.bias.size()) == c.c_out,
            "NetBuilder::conv: bias size " << c.bias.size());
  detail::Op op;
  op.kind = detail::OpKind::kConv;
  op.in0 = x;
  op.relu = fuse_relu;
  op.c_in = c.c_in;
  op.c_out = c.c_out;
  op.k = c.k;
  op.dilation = c.dilation;
  op.stride = c.stride;
  op.t_in = in.steps;
  op.t_out = nn::causal_conv1d_output_steps(in.steps, c.stride);
  index_t w_blk = -1;
  if (detail::packed_conv(op)) {
    // Stride-1 convs (the TCN hot path) get the inference-packed weight
    // layout so execution takes the packed conv kernels.
    nn::kernels::ConvDims dims{};
    dims.c_in = c.c_in;
    dims.c_out = c.c_out;
    dims.k = c.k;
    const index_t packed_floats = nn::kernels::packed_weight_floats(dims);
    std::vector<float> packed(static_cast<std::size_t>(packed_floats));
    nn::kernels::pack_conv_weight(c.weight.data(), dims, packed.data());
    w_blk = fp32_.params.add(std::move(packed));
  } else {
    w_blk = push_params(c.weight.data(),
                        static_cast<index_t>(c.weight.size()));
  }
  const index_t b_blk =
      c.bias.empty() ? -1
                     : push_params(c.bias.data(),
                                   static_cast<index_t>(c.bias.size()));
  op.out = new_value(c.c_out, op.t_out);
  push_op(op, w_blk, b_blk);
  return op.out;
}

ValueId NetBuilder::linear(ValueId x, const Tensor& weight, const Tensor& bias,
                           bool fuse_relu) {
  const detail::Value& in = value(x);
  PIT_CHECK(in.steps == 1,
            "NetBuilder::linear: input must be flat (steps == 1), got "
                << in.channels << "x" << in.steps << " — flatten() first");
  PIT_CHECK(weight.rank() == 2 && weight.dim(1) == in.channels,
            "NetBuilder::linear: weight " << weight.shape().to_string()
                                          << " for " << in.channels
                                          << " features");
  detail::Op op;
  op.kind = detail::OpKind::kLinear;
  op.in0 = x;
  op.relu = fuse_relu;
  op.c_in = weight.dim(1);
  op.c_out = weight.dim(0);
  op.t_in = 1;
  op.t_out = 1;
  const index_t w_blk = push_params(weight.data(), weight.numel());
  index_t b_blk = -1;
  if (bias.defined()) {
    PIT_CHECK(bias.rank() == 1 && bias.dim(0) == op.c_out,
              "NetBuilder::linear: bias " << bias.shape().to_string());
    b_blk = push_params(bias.data(), bias.numel());
  }
  op.out = new_value(op.c_out, 1);
  push_op(op, w_blk, b_blk);
  return op.out;
}

ValueId NetBuilder::avg_pool(ValueId x, index_t kernel, index_t stride) {
  const detail::Value& in = value(x);
  PIT_CHECK(kernel >= 1 && stride >= 1 && in.steps >= kernel,
            "NetBuilder::avg_pool: kernel=" << kernel << " stride=" << stride
                                            << " over " << in.steps
                                            << " steps");
  detail::Op op;
  op.kind = detail::OpKind::kAvgPool;
  op.in0 = x;
  op.c_in = in.channels;
  op.c_out = in.channels;
  op.k = kernel;
  op.stride = stride;
  op.t_in = in.steps;
  op.t_out = (in.steps - kernel) / stride + 1;
  op.out = new_value(in.channels, op.t_out);
  push_op(op);
  return op.out;
}

ValueId NetBuilder::add(ValueId a, ValueId b, bool fuse_relu) {
  const detail::Value& va = value(a);
  const detail::Value& vb = value(b);
  PIT_CHECK(va.channels == vb.channels && va.steps == vb.steps,
            "NetBuilder::add: shape mismatch " << va.channels << "x" << va.steps
                                               << " vs " << vb.channels << "x"
                                               << vb.steps);
  detail::Op op;
  op.kind = detail::OpKind::kAdd;
  op.in0 = a;
  op.in1 = b;
  op.relu = fuse_relu;
  op.c_in = va.channels;
  op.c_out = va.channels;
  op.t_in = va.steps;
  op.t_out = va.steps;
  op.out = new_value(va.channels, va.steps);
  push_op(op);
  return op.out;
}

ValueId NetBuilder::flatten(ValueId x) {
  const detail::Value& in = value(x);
  return new_value(in.channels * in.steps, 1, x);
}

CompiledPlan NetBuilder::compile(ValueId output, WeightPool* pool) && {
  PIT_CHECK(input_ >= 0, "NetBuilder: no input declared");
  PIT_CHECK(output >= 0 && output < static_cast<ValueId>(values_.size()),
            "NetBuilder: unknown output value " << output);
  PIT_CHECK(!ops_.empty(), "NetBuilder: empty network");

  CompiledPlan net;
  net.ops_ = std::move(ops_);
  net.values_ = std::move(values_);
  net.fp32_ = std::move(fp32_);
  if (pool != nullptr) {
    // Re-intern every packed block through the shared pool: plans compiled
    // against one pool share physical storage for identical layers.
    net.fp32_.params.intern_all(*pool);
  }
  net.input_ = input_;
  net.output_ = output;

  // Resolve alias chains to storage roots (aliases only point backwards).
  net.root_.resize(net.values_.size());
  for (std::size_t v = 0; v < net.values_.size(); ++v) {
    const ValueId a = net.values_[v].alias_of;
    net.root_[v] = a < 0 ? static_cast<ValueId>(v)
                         : net.root_[static_cast<std::size_t>(a)];
  }
  PIT_CHECK(net.root_[static_cast<std::size_t>(net.output_)] !=
                net.root_[static_cast<std::size_t>(net.input_)],
            "NetBuilder: the output aliases the input; nothing to execute");
  PIT_CHECK(net.values_[static_cast<std::size_t>(net.output_)].alias_of < 0,
            "NetBuilder: the output must be an op result, not a flatten "
            "view");

  // Streamable when every op preserves the time axis one step at a time:
  // stride-1 convs (their packed weights double as the per-step layout)
  // and elementwise adds.
  net.streamable_ = std::all_of(
      net.ops_.begin(), net.ops_.end(), [](const detail::Op& op) {
        return detail::packed_conv(op) || op.kind == detail::OpKind::kAdd;
      });
  net.plan_layout(net.fp32_);

  // Kernel binding: resolve every op to concrete registry kernels, once.
  // The executors only ever call these pointers — there is no backend
  // resolution, env lookup, or signature matching on the hot path.
  const auto& reg = nn::kernels::Registry::instance();
  for (std::size_t i = 0; i < net.ops_.size(); ++i) {
    const detail::Op& op = net.ops_[i];
    detail::OpBinding& bind = net.fp32_.ops[i].bind;
    switch (op.kind) {
      case detail::OpKind::kConv:
        if (detail::packed_conv(op)) {
          const nn::kernels::ConvSig sig{op.k, op.c_in, op.c_out};
          const auto conv = reg.conv_packed_f32(sig);
          bind.conv = conv.fn;
          bind.meta = conv.meta;
          const auto step = reg.conv_step_f32(sig);
          bind.step = step.fn;
          bind.step_meta = step.meta;
        } else {
          // Strided conv: the training kernels' scalar-vs-blocked choice
          // (the MAC-count heuristic) runs here, once, for the op's
          // per-sample geometry.
          nn::kernels::ConvDims dims{};
          dims.n = 1;
          dims.c_in = op.c_in;
          dims.c_out = op.c_out;
          dims.k = op.k;
          dims.t_in = op.t_in;
          dims.t_out = op.t_out;
          dims.dilation = op.dilation;
          dims.stride = op.stride;
          const auto& train = reg.conv_train_f32(dims);
          bind.conv_train = train.forward;
          bind.meta = &train.meta;
        }
        break;
      case detail::OpKind::kLinear: {
        const auto lin = reg.linear_f32();
        bind.linear = lin.fn;
        bind.meta = lin.meta;
        break;
      }
      case detail::OpKind::kAvgPool:
      case detail::OpKind::kAdd:
        // Executed by loops inside the executor itself.
        bind.meta = &nn::kernels::Registry::inline_meta();
        break;
    }
  }

  // Prove the planned layouts and bindings before anything can execute
  // them — a plan that compiles is a plan whose memory model verified.
  analysis::verify_or_throw(net, "NetBuilder::compile");
  return net;
}

// ---- The layout planner ---------------------------------------------------

template <typename T>
void CompiledPlan::plan_layout(detail::Program<T>& prog) const {
  using Data = detail::ProgramData<T>;
  const std::size_t nv = values_.size();
  const auto root = [&](ValueId v) {
    return static_cast<std::size_t>(root_[static_cast<std::size_t>(v)]);
  };
  const std::size_t in_root = root(input_);
  const std::size_t out_root = root(output_);

  // Liveness per storage root: defined by its producing op, dead after its
  // last reader.
  std::vector<int> def(nv, -1);
  std::vector<int> last(nv, -1);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const detail::Op& op = ops_[i];
    if (op.in1 >= 0) {
      last[root(op.in1)] = static_cast<int>(i);
    }
    last[root(op.in0)] = static_cast<int>(i);
    def[root(op.out)] = static_cast<int>(i);
  }
  PIT_CHECK(def[out_root] >= 0, "NetBuilder: output is not produced by any op");

  // Row layouts. Every value a packed conv reads is planned padded:
  // (k-1)*dilation lead steps per row holding the causal padding
  // (materialized once) plus the dtype's tail slack, so the kernel never
  // does per-tap bounds work.
  prog.lead.assign(nv, 0);
  prog.slack.assign(nv, 0);
  for (const detail::Op& op : ops_) {
    if (detail::packed_conv(op)) {
      const std::size_t r = root(op.in0);
      prog.lead[r] = std::max(prog.lead[r], (op.k - 1) * op.dilation);
      prog.slack[r] = Data::kConvSlack;
    }
  }
  const auto padded = [&](std::size_t r) {
    return prog.lead[r] > 0 || prog.slack[r] > 0;
  };
  // The output lives in the returned dense tensor; padding it is not
  // supported (no consumer could need it anyway — it feeds no op).
  PIT_CHECK(!padded(out_root),
            "NetBuilder: the network output cannot feed a packed conv");
  // Flatten aliases reinterpret rows as one contiguous block: only legal
  // over dense storage.
  for (std::size_t v = 0; v < nv; ++v) {
    PIT_CHECK(values_[v].alias_of < 0 || !padded(root_[v]),
              "NetBuilder: flatten of a conv-consumed (padded) value is "
              "not supported");
  }
  // Ops that can only write dense rows must not produce padded values,
  // and ops that can only read dense rows must not consume them — catch
  // both at compile time rather than on the first forward().
  for (const detail::Op& op : ops_) {
    if (op.kind == detail::OpKind::kLinear ||
        (op.kind == detail::OpKind::kConv && !detail::packed_conv(op))) {
      PIT_CHECK(!padded(root(op.out)),
                "NetBuilder: a strided conv / linear cannot feed a packed "
                "conv directly");
      PIT_CHECK(!padded(root(op.in0)),
                "NetBuilder: a strided conv / linear cannot read a value "
                "that also feeds a packed conv");
    }
  }
  prog.stride.assign(nv, 0);
  for (std::size_t v = 0; v < nv; ++v) {
    prog.stride[v] = prog.lead[v] + values_[v].steps + prog.slack[v];
  }

  // Arena: one request per produced root (the output lives in the
  // returned tensor), plus the input when it is staged — a padded or
  // converted input cannot alias the caller's dense float tensor, so the
  // executor copies it into the arena, live from before op 0 until its
  // last reader.
  const bool staged = Data::kAlwaysStage || padded(in_root);
  std::vector<ArenaRequest> requests;
  std::vector<std::size_t> request_root;
  for (std::size_t v = 0; v < nv; ++v) {
    const index_t size = detail::Program<T>::row_groups(values_[v].channels) *
                         Data::kGroup * prog.stride[v];
    if (v == in_root && staged) {
      requests.push_back({size, 0, std::max(last[v], 0)});
    } else if (root_[v] == static_cast<ValueId>(v) && v != out_root &&
               def[v] >= 0) {
      requests.push_back({size, def[v], std::max(last[v], def[v])});
    } else {
      continue;  // alias, external buffer, or never produced
    }
    request_root.push_back(v);
  }
  const ArenaPlan plan = plan_arena(requests);
  prog.offset.assign(nv, -1);
  for (std::size_t r = 0; r < request_root.size(); ++r) {
    prog.offset[request_root[r]] = plan.offsets[r];
  }
  prog.arena = plan.total;

  prog.stream = streamable_
                    ? detail::stream_layout(ops_, values_, root_, Data::kGroup)
                    : detail::StreamLayout{};
}

template void CompiledPlan::plan_layout(detail::Program<float>&) const;
template void CompiledPlan::plan_layout(detail::Program<std::uint8_t>&) const;

detail::StreamLayout detail::stream_layout(const std::vector<Op>& ops,
                                           const std::vector<Value>& values,
                                           const std::vector<ValueId>& root,
                                           index_t group) {
  // Rows of a group-interleaved vector: channels rounded up to the group.
  const auto lanes = [group](index_t channels) {
    return (channels + group - 1) / group * group;
  };
  StreamLayout s;
  s.ring_off.assign(ops.size(), -1);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == OpKind::kConv) {
      s.ring_off[i] = s.ring;
      s.ring += lanes(ops[i].c_in) * ring_span(ops[i]);
    }
  }
  s.vec_off.assign(values.size(), -1);
  for (std::size_t v = 0; v < values.size(); ++v) {
    if (root[v] == static_cast<ValueId>(v)) {
      s.vec_off[v] = s.vecs;
      s.vecs += lanes(values[v].channels);
    }
  }
  return s;
}

// ---- CompiledPlan introspection ------------------------------------------

index_t CompiledPlan::input_channels() const {
  return values_[static_cast<std::size_t>(input_)].channels;
}

index_t CompiledPlan::input_steps() const {
  return values_[static_cast<std::size_t>(input_)].steps;
}

index_t CompiledPlan::output_channels() const {
  return values_[static_cast<std::size_t>(output_)].channels;
}

index_t CompiledPlan::output_steps() const {
  return values_[static_cast<std::size_t>(output_)].steps;
}

double CompiledPlan::quant_error_bound() const {
  PIT_CHECK(u8_, "quant_error_bound: plan is not quantized");
  return u8_->error_bound;
}

double CompiledPlan::quant_error_estimate() const {
  PIT_CHECK(u8_, "quant_error_estimate: plan is not quantized");
  return u8_->error_estimate;
}

const std::vector<quant::QuantParams>& CompiledPlan::activation_quant_params()
    const {
  static const std::vector<quant::QuantParams> kNone;
  return u8_ ? u8_->qparams : kNone;
}

index_t CompiledPlan::OpInfo::macs() const {
  switch (kind) {
    case detail::OpKind::kConv:
      return t_out * c_out * c_in * k;
    case detail::OpKind::kLinear:
      return c_in * c_out;
    case detail::OpKind::kAvgPool:
      return t_out * c_out * k;
    case detail::OpKind::kAdd:
      break;
  }
  return 0;
}

std::vector<CompiledPlan::OpInfo> CompiledPlan::op_infos() const {
  std::vector<OpInfo> infos;
  infos.reserve(ops_.size());
  for (const detail::Op& op : ops_) {
    OpInfo info;
    info.kind = op.kind;
    info.c_in = op.c_in;
    info.c_out = op.c_out;
    // Linear / add ops record no taps; normalize to the documented k = 1.
    info.k = std::max<index_t>(op.k, 1);
    info.dilation = op.dilation;
    info.stride = op.stride;
    info.t_in = op.t_in;
    info.t_out = op.t_out;
    info.relu = op.relu;
    infos.push_back(info);
  }
  return infos;
}

index_t CompiledPlan::activation_floats_per_sample() const {
  // Sum of the planned (arena-backed) buffer sizes, padding included —
  // what the arena would need without liveness reuse.
  index_t total = 0;
  for (std::size_t v = 0; v < values_.size(); ++v) {
    if (fp32_.offset[v] >= 0) {
      total += values_[v].channels * fp32_.stride[v];
    }
  }
  return total;
}

namespace {

void print_op_head(std::ostringstream& os, const detail::Op& op) {
  switch (op.kind) {
    case detail::OpKind::kConv:
      os << "conv " << op.c_in << "->" << op.c_out << " k" << op.k << " d"
         << op.dilation << " s" << op.stride;
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
  os << " t" << op.t_in << "->" << op.t_out;
  if (op.relu) {
    os << " +relu";
  }
}

void print_kernel(std::ostringstream& os, const char* tag,
                  const nn::kernels::KernelMeta* m) {
  os << ' ' << tag << '=';
  if (m == nullptr) {
    os << "unbound";
    return;
  }
  os << m->isa << '/' << m->variant << ' '
     << (m->specialized ? "specialized" : "generic") << " key=" << m->op;
}

}  // namespace

std::string CompiledPlan::summary() const {
  std::ostringstream os;
  os << "CompiledPlan: " << ops_.size() << " ops, "
     << param_floats() << " packed param floats, arena "
     << fp32_.arena << " floats/sample (unplanned: "
     << activation_floats_per_sample() << ")"
     << (streamable_ ? ", streamable" : "") << "\n";
  if (u8_) {
    os << "  int8 program: " << quant_weight_bytes()
       << " packed weight bytes, " << u8_->arena
       << " arena bytes/sample, output error bound " << u8_->error_bound
       << " (rms estimate " << u8_->error_estimate << ")\n";
  }
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const detail::Op& op = ops_[i];
    os << "  #" << i << " ";
    print_op_head(os, op);
    const ValueId r = root_[static_cast<std::size_t>(op.out)];
    const index_t off = fp32_.offset[static_cast<std::size_t>(r)];
    if (off >= 0) {
      os << " @" << off;
    } else {
      os << " @out";
    }
    os << "\n";
  }
  return os.str();
}

std::string CompiledPlan::describe() const {
  std::ostringstream os;
  os << "CompiledPlan bindings (" << (u8_ ? "int8" : "fp32")
     << " program):\n";
  if (u8_ && u8_->stage_meta != nullptr) {
    os << "  input stage";
    print_kernel(os, "kernel", u8_->stage_meta);
    os << "\n";
  }
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const detail::Op& op = ops_[i];
    os << "  #" << i << " ";
    print_op_head(os, op);
    os << " |";
    // Quantized plans execute the int8 lowering — report what actually
    // runs; the fp32 bindings still exist but only serve reference runs.
    const nn::kernels::KernelMeta* meta =
        u8_ ? u8_->ops[i].bind.meta : fp32_.ops[i].bind.meta;
    const nn::kernels::KernelMeta* step_meta =
        u8_ ? u8_->ops[i].bind.step_meta : fp32_.ops[i].bind.step_meta;
    print_kernel(os, "kernel", meta);
    if (streamable_ && op.kind == detail::OpKind::kConv) {
      print_kernel(os, "step", step_meta);
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace pit::runtime
