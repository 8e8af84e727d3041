// Layer probes for the traced run: the benchmark's own timed calls into
// the runtime (CompiledPlan forward/step, PlanHandle::acquire), the
// registry-bound conv kernels, and the wire codec (encode/decode,
// FrameReader) over the workload's own frames.
#include "probes.hpp"

#include <cstring>

#include "net/protocol.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/kernels/registry.hpp"
#include "runtime/plan_registry.hpp"

namespace pitperf {

namespace kern = pit::nn::kernels;
namespace net = pit::net;
using pit::Shape;
using pit::Tensor;
using pit::runtime::CompiledPlan;
using pit::runtime::ExecutionContext;

namespace {

/// Median wall time (us) of `reps` calls of `fn`, after two warm-up calls,
/// each call wrapped in a span named `name`.
template <typename Fn>
double median_call_us(Tracer& tr, const char* name, int reps, Fn&& fn) {
  fn();
  fn();
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    const std::int32_t s = tr.begin(name, 0);
    fn();
    tr.end(s);
    t.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(std::move(t));
}

/// Mean ns per call over a batch of `n` calls (calls too short to time
/// one by one).
template <typename Fn>
double ns_per_call(std::size_t n, Fn&& fn) {
  for (std::size_t i = 0; i < n / 8 + 1; ++i) {
    fn(i);
  }
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    fn(i);
  }
  return static_cast<double>(now_ns() - t0) / static_cast<double>(n);
}

// Decoded request ids land here, so the decode loops cannot be elided.
volatile std::uint64_t g_decode_sink = 0;

double plan_macs(const CompiledPlan& plan) {
  double macs = 0.0;
  for (const auto& op : plan.op_infos()) {
    macs += static_cast<double>(op.macs());
  }
  return macs;
}

Tensor batch_of(const std::vector<float>& w, index_t n, index_t c, index_t t) {
  std::vector<float> v(w.begin(), w.begin() + static_cast<std::ptrdiff_t>(n * c * t));
  return Tensor::from_vector(v, Shape{n, c, t});
}

}  // namespace

double forward_us_at(const Metrics& m, const std::string& dtype, double batch) {
  const double b1 = m.get("runtime.forward_us." + dtype + ".b1");
  const double b16 = m.get("runtime.forward_us." + dtype + ".b16");
  return b1 + (b16 - b1) * (batch - 1.0) / 15.0;
}

void probe_runtime(const Served& sv, std::uint64_t seed, Metrics& m,
                   Tracer& tr) {
  const index_t c = sv.submit_f32->input_channels();
  const index_t t = sv.submit_f32->input_steps();
  const std::vector<float> w = make_windows(seed ^ 0x9F, 16, c, t);
  const Tensor x1 = batch_of(w, 1, c, t);
  const Tensor x16 = batch_of(w, 16, c, t);
  const struct {
    const char* dtype;
    const CompiledPlan* plan;
  } plans[] = {{"fp32", sv.submit_f32.get()}, {"int8", sv.submit_i8.get()}};
  for (const auto& p : plans) {
    ExecutionContext ctx;
    const std::string d = p.dtype;
    const double b1 = median_call_us(tr, "runtime.forward", 100,
                                     [&] { (void)p.plan->forward(x1, ctx); });
    const double b16 = median_call_us(tr, "runtime.forward", 20,
                                      [&] { (void)p.plan->forward(x16, ctx); });
    m.set("runtime.forward_us." + d + ".b1", b1, "us");
    m.set("runtime.forward_us." + d + ".b16", b16, "us");
    m.set("runtime.gmacs." + d + ".b16", plan_macs(*p.plan) * 16.0 / (b16 * 1e3),
          "GMAC/s");
    if (d == "fp32") {
      m.set("runtime.arena_bytes", static_cast<double>(ctx.batch_arena_bytes()),
            "B");
    }
  }
  const struct {
    const char* dtype;
    const CompiledPlan* plan;
  } streams[] = {{"fp32", sv.stream_f32.get()}, {"int8", sv.stream_i8.get()}};
  for (const auto& p : streams) {
    ExecutionContext ctx;
    std::vector<float> out(static_cast<std::size_t>(p.plan->output_channels()));
    std::size_t k = 0;
    const double us = median_call_us(tr, "runtime.step", 2000, [&] {
      p.plan->step(w.data() + (k++ % static_cast<std::size_t>(t)) *
                                  static_cast<std::size_t>(c),
                   out.data(), ctx);
    });
    m.set(std::string("runtime.step_us.") + p.dtype, us, "us");
  }
  const auto handle = pit::runtime::PlanHandle::single(sv.submit_f32);
  m.set("runtime.acquire_ns", ns_per_call(200000, [&](std::size_t) {
          const auto lease = handle.acquire();
          (void)lease.plan();
        }),
        "ns");
  m.set("runtime.compile_ms", sv.compile_ms, "ms");
  m.set("runtime.quantize_ms", sv.quantize_ms, "ms");
}

void probe_kernels(const CompiledPlan& plan, Metrics& m, Tracer& tr) {
  const kern::Registry& reg = kern::Registry::instance();
  pit::RandomEngine rng(0x4B);
  const index_t n = 16;
  double macs = 0.0, f32_us = 0.0, i8_us = 0.0, bwi_us = 0.0, bww_us = 0.0;
  for (const auto& op : plan.op_infos()) {
    if (op.kind != pit::runtime::detail::OpKind::kConv || op.stride != 1) {
      continue;
    }
    kern::ConvDims d{};
    d.n = n;
    d.c_in = op.c_in;
    d.c_out = op.c_out;
    d.k = op.k;
    d.t_in = op.t_in;
    d.t_out = op.t_out;
    d.dilation = op.dilation;
    d.stride = 1;
    const index_t st = op.t_out;
    const index_t lead = (op.k - 1) * op.dilation;
    const kern::ConvSig sig{op.k, op.c_in, op.c_out};
    macs += static_cast<double>(n * op.c_out * op.c_in * op.k * st);
    // fp32: padded rows as laid out in the plan's arena.
    {
      const index_t stride = lead + st + kern::kPackTimeTile;
      Tensor xr = Tensor::randn(Shape{n * op.c_in, stride}, rng);
      for (index_t r = 0; r < n * op.c_in; ++r) {
        std::fill_n(xr.data() + r * stride, lead, 0.0F);
      }
      Tensor wt = Tensor::randn(Shape{op.c_out, op.c_in, op.k}, rng);
      std::vector<float> wp(static_cast<std::size_t>(kern::packed_weight_floats(d)));
      kern::pack_conv_weight(wt.data(), d, wp.data());
      Tensor bias = Tensor::randn(Shape{op.c_out}, rng);
      Tensor y = Tensor::zeros(Shape{n, op.c_out, st});
      const auto bound = reg.conv_packed_f32(sig);
      f32_us += median_call_us(tr, "kernels.conv_fwd.fp32", 15, [&] {
        bound.fn(xr.data() + lead, wp.data(), bias.data(), y.data(), d, stride,
                 st, /*x_padded=*/true, /*relu=*/true);
      });
      // Training kernels (what the search's backward runs).
      Tensor x = Tensor::randn(Shape{n, op.c_in, op.t_in}, rng);
      Tensor dy = Tensor::randn(Shape{n, op.c_out, st}, rng);
      Tensor dx = Tensor::zeros(Shape{n, op.c_in, op.t_in});
      Tensor dw = Tensor::zeros(Shape{op.c_out, op.c_in, op.k});
      bwi_us += median_call_us(tr, "kernels.conv_bwd_input", 9, [&] {
        kern::conv_backward_input(dy.data(), wt.data(), dx.data(), d);
      });
      bww_us += median_call_us(tr, "kernels.conv_bwd_weight", 9, [&] {
        kern::conv_backward_weight(dy.data(), x.data(), dw.data(), d);
      });
    }
    // i8: channel-group u8 rows with a zero-point lead.
    {
      const index_t stride = lead + st;
      const index_t g_in = kern::quant_groups(op.c_in);
      std::vector<std::uint8_t> x(
          static_cast<std::size_t>(n * g_in * kern::kQuantCiGroup * stride));
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = static_cast<std::uint8_t>((i * 31 + 7) % 256);
      }
      for (index_t r = 0; r < n * g_in; ++r) {
        std::memset(x.data() + r * kern::kQuantCiGroup * stride, 128,
                    static_cast<std::size_t>(kern::kQuantCiGroup * lead));
      }
      std::vector<std::int8_t> wq(static_cast<std::size_t>(op.c_out * op.c_in * op.k));
      for (std::size_t i = 0; i < wq.size(); ++i) {
        wq[i] = static_cast<std::int8_t>(static_cast<int>((i * 53 + 11) % 255) - 127);
      }
      std::vector<std::int8_t> wp(static_cast<std::size_t>(kern::packed_weight_bytes_i8(d)));
      kern::pack_conv_weight_i8(wq.data(), d, wp.data());
      const index_t co_round =
          (op.c_out + kern::kQuantCo - 1) / kern::kQuantCo * kern::kQuantCo;
      std::vector<float> mul(static_cast<std::size_t>(co_round), 0.001F);
      std::vector<float> add(static_cast<std::size_t>(co_round), 128.0F);
      std::vector<std::uint8_t> yq(static_cast<std::size_t>(
          n * kern::quant_groups(op.c_out) * kern::kQuantCiGroup * st));
      const auto bound = reg.conv_packed_i8(sig);
      i8_us += median_call_us(tr, "kernels.conv_fwd.i8", 15, [&] {
        bound.fn(x.data() + kern::kQuantCiGroup * lead, wp.data(), mul.data(),
                 add.data(), yq.data(), nullptr, d, stride, st, /*relu=*/true,
                 /*out_lo=*/128);
      });
    }
  }
  m.set("kernels.conv_fwd_gmacs.fp32", macs / (f32_us * 1e3), "GMAC/s");
  m.set("kernels.conv_fwd_gmacs.i8", macs / (i8_us * 1e3), "GMAC/s");
  m.set("kernels.conv_bwd_input_gmacs", macs / (bwi_us * 1e3), "GMAC/s");
  m.set("kernels.conv_bwd_weight_gmacs", macs / (bww_us * 1e3), "GMAC/s");
}

void probe_codec(const SubmitOracle& sub, const StreamOracle& str, Metrics& m) {
  std::vector<std::uint8_t> buf;
  buf.reserve(1U << 16);
  const auto sc = static_cast<std::uint32_t>(sub.c);
  const auto stp = static_cast<std::uint32_t>(sub.t);
  const auto sin = static_cast<std::uint32_t>(str.c_in);
  const auto sout = static_cast<std::uint32_t>(str.c_out);
  const std::size_t n = 20000;
  m.set("net.encode_ns.submit", ns_per_call(n, [&](std::size_t i) {
          buf.clear();
          net::encode_submit(buf, i, sc, stp, sub.input(i % sub.pool));
        }),
        "ns");
  m.set("net.encode_ns.step", ns_per_call(n, [&](std::size_t i) {
          buf.clear();
          net::encode_step(buf, i, 7, str.input(i % str.pool, 0), sin);
        }),
        "ns");
  // The frames a client receives: RESULT and STEP_OUT of the references.
  std::vector<std::vector<std::uint8_t>> results(sub.pool), step_outs(str.pool);
  for (std::size_t i = 0; i < sub.pool; ++i) {
    net::encode_result(results[i], i, static_cast<std::uint32_t>(sub.out_n), 1,
                       sub.ref(i));
  }
  for (std::size_t i = 0; i < str.pool; ++i) {
    net::encode_step_out(step_outs[i], i, 7, str.ref(i, 0), sout);
  }
  net::ErrCode code{};
  std::uint64_t sink = 0;
  m.set("net.decode_ns.result", ns_per_call(n, [&](std::size_t i) {
          net::ResultMsg msg;
          const auto& f = results[i % sub.pool];
          net::decode_result({f.data() + net::kHeaderBytes, f.size() - net::kHeaderBytes},
                             msg, code);
          sink += msg.req_id;
        }),
        "ns");
  m.set("net.decode_ns.step_out", ns_per_call(n, [&](std::size_t i) {
          net::StepOutMsg msg;
          const auto& f = step_outs[i % str.pool];
          net::decode_step_out({f.data() + net::kHeaderBytes, f.size() - net::kHeaderBytes},
                               msg, code);
          sink += msg.req_id;
        }),
        "ns");
  // FrameReader over an interleaved stream fed in 64 KiB reads.
  std::vector<std::uint8_t> stream;
  for (std::size_t i = 0; i < 4096; ++i) {
    const auto& f = (i % 4 == 0) ? results[i % sub.pool] : step_outs[i % str.pool];
    stream.insert(stream.end(), f.begin(), f.end());
  }
  std::size_t frames = 0;
  const std::int64_t t0 = now_ns();
  for (int rep = 0; rep < 8; ++rep) {
    net::FrameReader reader;
    net::FrameView f;
    for (std::size_t off = 0; off < stream.size(); off += 65536) {
      reader.feed(stream.data() + off, std::min<std::size_t>(65536, stream.size() - off));
      while (reader.next(f) == net::FrameReader::Status::kFrame) {
        ++frames;
      }
    }
  }
  m.set("net.reader_ns_per_frame",
        static_cast<double>(now_ns() - t0) / static_cast<double>(frames), "ns");
  g_decode_sink = sink;
}

}  // namespace pitperf

namespace pitperf {

namespace {

struct PerLayer {
  const char* name;
  const char* unit;
};

// Every per-layer metric of a traced run, in report order (mirrors the
// per_layer list of BENCHMARK.json; `pitperf --list-metrics` prints it).
constexpr PerLayer kPerLayer[] = {
    {"net.submit_self_us", "us"},
    {"net.step_self_us", "us"},
    {"net.step_self_us.p99", "us"},
    {"net.encode_ns.submit", "ns"},
    {"net.encode_ns.step", "ns"},
    {"net.decode_ns.result", "ns"},
    {"net.decode_ns.step_out", "ns"},
    {"net.reader_ns_per_frame", "ns"},
    {"net.sheds", "count"},
    {"net.protocol_errors", "count"},
    {"net.exec_errors", "count"},
    {"net.slow_closed", "count"},
    {"net.session_rejects", "count"},
    {"net.hop_us", "us"},
    {"serve.submit_us", "us"},
    {"serve.submit_us.p99", "us"},
    {"serve.queue_wait_us", "us"},
    {"serve.mean_batch", "count"},
    {"serve.batches", "count"},
    {"serve.step_us", "us"},
    {"serve.step_us.p99", "us"},
    {"serve.open_us", "us"},
    {"serve.close_us", "us"},
    {"serve.alloc_hit_ratio", "ratio"},
    {"serve.recycled_ratio", "ratio"},
    {"serve.evicted", "count"},
    {"runtime.forward_us.fp32.b1", "us"},
    {"runtime.forward_us.fp32.b16", "us"},
    {"runtime.forward_us.int8.b1", "us"},
    {"runtime.forward_us.int8.b16", "us"},
    {"runtime.gmacs.fp32.b16", "GMAC/s"},
    {"runtime.gmacs.int8.b16", "GMAC/s"},
    {"runtime.step_us.fp32", "us"},
    {"runtime.step_us.int8", "us"},
    {"runtime.acquire_ns", "ns"},
    {"runtime.compile_ms", "ms"},
    {"runtime.quantize_ms", "ms"},
    {"runtime.arena_bytes", "B"},
    {"kernels.conv_fwd_gmacs.fp32", "GMAC/s"},
    {"kernels.conv_fwd_gmacs.i8", "GMAC/s"},
    {"kernels.conv_bwd_input_gmacs", "GMAC/s"},
    {"kernels.conv_bwd_weight_gmacs", "GMAC/s"},
    {"search.data_ms", "ms"},
    {"search.forward_ms", "ms"},
    {"search.regularizer_ms", "ms"},
    {"search.backward_ms", "ms"},
    {"search.optim_ms", "ms"},
    {"search.samples", "count"},
    {"search.epochs", "count"},
    {"trace.overhead_frac", "ratio"},
    {"trace.accounted_frac", "ratio"},
    {"trace.accounted_ok", "count"},
    {"trace.spans", "count"},
    {"e2e.samples", "count"},
    {"e2e.tail_pct", "pct"},
    {"oracle.outputs_checked", "count"},
    {"oracle.outputs_mismatched", "count"},
    {"oracle.selfcheck_caught", "count"},
};

}  // namespace

void preset_per_layer(Metrics& m) {
  for (const PerLayer& p : kPerLayer) {
    m.set(p.name, 0.0, p.unit);
  }
}

}  // namespace pitperf
