// Micro-benchmarks (google-benchmark): kernel-level costs underpinning the
// experiments — dense vs masked convolution (the PIT overhead the paper
// calls "lightweight"), mask construction, binarization, and the backward
// passes that dominate search time.
//
// After the registered benchmarks run, a scalar-vs-blocked backend
// comparison executes and writes BENCH_kernels.json to the working
// directory (pass --compare-only to skip the google-benchmark section).
#include <benchmark/benchmark.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/mask.hpp"
#include "core/pit_conv1d.hpp"
#include "core/regularizer.hpp"
#include "nn/conv1d.hpp"
#include "nn/kernels/registry.hpp"
#include "tensor/ops.hpp"

namespace pit {
namespace {

void BM_Conv1dForward(benchmark::State& state) {
  const index_t channels = state.range(0);
  const index_t k = state.range(1);
  RandomEngine rng(1);
  Tensor x = Tensor::randn(Shape{8, channels, 64}, rng);
  Tensor w = Tensor::randn(Shape{channels, channels, k}, rng);
  Tensor b = Tensor::randn(Shape{channels}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor y = nn::causal_conv1d(x, w, b, 1, 1);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 8 * channels * channels * k *
                          64);
}
BENCHMARK(BM_Conv1dForward)->Args({16, 5})->Args({16, 17})->Args({32, 9});

void BM_Conv1dForwardDilated(benchmark::State& state) {
  const index_t d = state.range(0);
  RandomEngine rng(2);
  Tensor x = Tensor::randn(Shape{8, 16, 64}, rng);
  Tensor w = Tensor::randn(Shape{16, 16, 5}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor y = nn::causal_conv1d(x, w, Tensor(), d, 1);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv1dForwardDilated)->Arg(1)->Arg(4)->Arg(8);

void BM_MaskedConvVsDense(benchmark::State& state) {
  // The PIT layer's forward at rf_max taps with an all-ones mask: the
  // masking overhead relative to BM_Conv1dForward at the same size.
  RandomEngine rng(3);
  Tensor x = Tensor::randn(Shape{8, 16, 64}, rng);
  Tensor w = Tensor::randn(Shape{16, 16, 17}, rng);
  Tensor m = Tensor::ones(Shape{17});
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor y = core::masked_causal_conv1d(x, w, Tensor(), m, 1);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MaskedConvVsDense);

void BM_MaskedConvPruned(benchmark::State& state) {
  // Same layer with a d=8 mask: zero taps are skipped by the kernels, so
  // pruning pays off during the search as well, not only after export.
  RandomEngine rng(4);
  Tensor x = Tensor::randn(Shape{8, 16, 64}, rng);
  Tensor w = Tensor::randn(Shape{16, 16, 17}, rng);
  Tensor m = Tensor::from_vector(core::mask_for_dilation(8, 17), Shape{17});
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor y = core::masked_causal_conv1d(x, w, Tensor(), m, 1);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MaskedConvPruned);

void BM_BuildMask(benchmark::State& state) {
  const index_t rf = state.range(0);
  Tensor gamma = Tensor::ones(Shape{core::num_gamma_levels(rf) - 1});
  for (auto _ : state) {
    Tensor m = core::build_mask(gamma, rf);
    benchmark::DoNotOptimize(m.data());
  }
}
BENCHMARK(BM_BuildMask)->Arg(9)->Arg(17)->Arg(33);

void BM_BinarizeSTE(benchmark::State& state) {
  RandomEngine rng(5);
  Tensor gamma = Tensor::uniform(Shape{64}, 0.0F, 1.0F, rng);
  for (auto _ : state) {
    Tensor b = binarize(gamma, 0.5F);
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_BinarizeSTE);

void BM_PitLayerTrainingStep(benchmark::State& state) {
  // One full forward+backward through a PIT layer (what each pruning-phase
  // step pays per layer), including the mask graph and the STE.
  RandomEngine rng(6);
  core::PITConv1d layer(16, 16, 17, {}, rng);
  Tensor x = Tensor::randn(Shape{8, 16, 64}, rng);
  for (auto _ : state) {
    layer.zero_grad();
    Tensor loss = mean(square(layer.forward(x)));
    loss.backward();
    benchmark::DoNotOptimize(layer.weight().grad_data());
  }
}
BENCHMARK(BM_PitLayerTrainingStep);

void BM_DenseConvTrainingStep(benchmark::State& state) {
  // Baseline for BM_PitLayerTrainingStep: the same geometry without masks.
  RandomEngine rng(7);
  nn::Conv1d layer(16, 16, 17, {}, rng);
  Tensor x = Tensor::randn(Shape{8, 16, 64}, rng);
  for (auto _ : state) {
    layer.zero_grad();
    Tensor loss = mean(square(layer.forward(x)));
    loss.backward();
    benchmark::DoNotOptimize(layer.weight().grad_data());
  }
}
BENCHMARK(BM_DenseConvTrainingStep);

void BM_SizeRegularizer(benchmark::State& state) {
  RandomEngine rng(8);
  std::vector<std::unique_ptr<core::PITConv1d>> storage;
  std::vector<core::PITConv1d*> layers;
  for (int i = 0; i < 8; ++i) {
    storage.push_back(
        std::make_unique<core::PITConv1d>(16, 16, 33, core::PitConv1dOptions{},
                                          rng));
    layers.push_back(storage.back().get());
  }
  for (auto _ : state) {
    Tensor reg = core::size_regularizer(layers, 1e-6);
    benchmark::DoNotOptimize(reg.data());
  }
}
BENCHMARK(BM_SizeRegularizer);

}  // namespace

// ------------------------------------------------------------------------
// Scalar vs blocked backend comparison -> BENCH_kernels.json.
// ------------------------------------------------------------------------

namespace kern = nn::kernels;

struct CompareShape {
  const char* name;
  kern::ConvDims d;
};

double time_ms(const std::function<void()>& fn) {
  // Adaptive repeat count, best-of-5 batches: stable on noisy shared hosts.
  using clock = std::chrono::steady_clock;
  fn();  // warm-up (page in buffers, spin up the OpenMP pool)
  auto t0 = clock::now();
  fn();
  double once_ms =
      std::chrono::duration<double, std::milli>(clock::now() - t0).count();
  const int iters =
      std::clamp(static_cast<int>(20.0 / std::max(once_ms, 1e-3)), 3, 300);
  double best = 1e300;
  for (int batch = 0; batch < 5; ++batch) {
    t0 = clock::now();
    for (int it = 0; it < iters; ++it) {
      fn();
    }
    const double ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count() /
        iters;
    best = std::min(best, ms);
  }
  return best;
}

struct CompareRow {
  std::string kernel;
  std::string shape;
  index_t macs;
  double scalar_ms;
  double blocked_ms;
};

void run_backend_compare(const char* json_path) {
  RandomEngine rng(99);
  // Batched (N >= 16) TCN-style shapes — the PIT search hot path.
  const std::vector<CompareShape> shapes = {
      {"n16_c32_k9_t256_d1_s1", {16, 32, 32, 9, 256, 256, 1, 1}},
      {"n16_c64_k5_t128_d2_s1", {16, 64, 64, 5, 128, 128, 2, 1}},
      {"n32_c32_k17_t64_d1_s1", {32, 32, 32, 17, 64, 64, 1, 1}},
      // The search's heaviest conv: half-width TempoNet's last block.
      {"n16_c64_k17_t32_d1_s1", {16, 64, 64, 17, 32, 32, 1, 1}},
      {"n16_c32_k9_t256_d1_s2", {16, 32, 32, 9, 256, 128, 1, 2}},
  };
  std::vector<CompareRow> rows;
  std::printf("\nscalar vs blocked backend (best-of-5 ms/call)\n");
  std::printf("%-28s %-16s %10s %11s %8s\n", "shape", "kernel", "scalar",
              "blocked", "speedup");
  for (const auto& s : shapes) {
    const kern::ConvDims& d = s.d;
    Tensor x = Tensor::randn(Shape{d.n, d.c_in, d.t_in}, rng);
    Tensor w = Tensor::randn(Shape{d.c_out, d.c_in, d.k}, rng);
    Tensor b = Tensor::randn(Shape{d.c_out}, rng);
    Tensor y = Tensor::zeros(Shape{d.n, d.c_out, d.t_out});
    Tensor dy = Tensor::randn(Shape{d.n, d.c_out, d.t_out}, rng);
    Tensor dx = Tensor::zeros(Shape{d.n, d.c_in, d.t_in});
    Tensor dw = Tensor::zeros(Shape{d.c_out, d.c_in, d.k});
    const kern::ConvTrainF32& blk =
        kern::Registry::instance().conv_train_f32_blocked();
    struct KernelRun {
      const char* name;
      std::function<void()> scalar;
      std::function<void()> blocked;
    };
    const std::vector<KernelRun> kernels = {
        {"forward",
         [&] {
           kern::scalar::conv_forward(x.data(), w.data(), b.data(), y.data(),
                                      d);
         },
         [&] { blk.forward(x.data(), w.data(), b.data(), y.data(), d); }},
        {"backward_input",
         [&] {
           kern::scalar::conv_backward_input(dy.data(), w.data(), dx.data(),
                                             d);
         },
         [&] { blk.backward_input(dy.data(), w.data(), dx.data(), d); }},
        {"backward_weight",
         [&] {
           kern::scalar::conv_backward_weight(dy.data(), x.data(), dw.data(),
                                              d);
         },
         [&] { blk.backward_weight(dy.data(), x.data(), dw.data(), d); }},
    };
    for (const auto& k : kernels) {
      const double scalar_ms = time_ms(k.scalar);
      const double blocked_ms = time_ms(k.blocked);
      rows.push_back({k.name, s.name, kern::conv_macs(d), scalar_ms,
                      blocked_ms});
      std::printf("%-28s %-16s %9.3fms %9.3fms %7.2fx\n", s.name, k.name,
                  scalar_ms, blocked_ms, scalar_ms / blocked_ms);
    }
  }

  // ---- Generic vs specialized registry variants -------------------------
  //
  // The frozen paper-network conv signatures (TempoNet blocks, ResTCN
  // hidden convs), each timed through the registry's auto-selected variant
  // against the guaranteed-fallback generic kernel, fp32 and i8. One
  // deliberately unmatched fp32 signature (ragged c_in) documents the
  // fallback: specialized == generic, speedup ~1.0.
  struct SpecShape {
    const char* name;
    index_t k, c_in, c_out, dilation;
  };
  const std::vector<SpecShape> spec_shapes = {
      {"temponet_b1_in", 3, 4, 32, 2},    {"temponet_b1", 3, 32, 32, 2},
      {"temponet_b2_in", 5, 32, 64, 1},   {"temponet_b2", 3, 64, 64, 4},
      {"temponet_b3_in", 3, 64, 128, 8},  {"temponet_b3", 3, 128, 128, 8},
      {"restcn_hidden", 5, 88, 150, 1},   {"restcn_ragged_in", 5, 9, 150, 1},
  };
  struct SpecRow {
    std::string shape;
    const char* dtype;
    index_t k, c_in, c_out, t;
    double generic_ms;
    double specialized_ms;
    std::string kernel;  // "<isa>/<variant>" of the auto-selected bind
  };
  std::vector<SpecRow> spec_rows;
  const kern::Registry& reg = kern::Registry::instance();
  const index_t sn = 8;
  const index_t st = 128;
  std::printf("\ngeneric vs specialized registry variants (best-of-5 ms)\n");
  std::printf("%-18s %-5s %-10s %10s %12s %8s\n", "shape", "dtype", "kernel",
              "generic", "specialized", "speedup");
  for (const auto& s : spec_shapes) {
    kern::ConvDims d{};
    d.n = sn;
    d.c_in = s.c_in;
    d.c_out = s.c_out;
    d.k = s.k;
    d.t_in = st;
    d.t_out = st;
    d.dilation = s.dilation;
    d.stride = 1;
    const index_t lead = (s.k - 1) * s.dilation;
    const kern::ConvSig sig{s.k, s.c_in, s.c_out};

    // fp32: padded row layout of the compiled plan's arena.
    {
      const index_t stride = lead + st + kern::kPackTimeTile;
      Tensor xr = Tensor::randn(Shape{sn * s.c_in, stride}, rng);
      for (index_t r = 0; r < sn * s.c_in; ++r) {
        std::fill_n(xr.data() + r * stride, lead, 0.0F);  // causal lead
      }
      Tensor w = Tensor::randn(Shape{s.c_out, s.c_in, s.k}, rng);
      std::vector<float> wp(
          static_cast<std::size_t>(kern::packed_weight_floats(d)));
      kern::pack_conv_weight(w.data(), d, wp.data());
      Tensor bias = Tensor::randn(Shape{s.c_out}, rng);
      Tensor y = Tensor::zeros(Shape{sn, s.c_out, st});
      const float* xp = xr.data() + lead;
      const auto spec = reg.conv_packed_f32(sig);
      const auto gen = reg.conv_packed_f32_generic();
      const double g_ms = time_ms([&] {
        gen.fn(xp, wp.data(), bias.data(), y.data(), d, stride, st,
               /*x_padded=*/true, /*relu=*/true);
      });
      const double s_ms = time_ms([&] {
        spec.fn(xp, wp.data(), bias.data(), y.data(), d, stride, st,
                /*x_padded=*/true, /*relu=*/true);
      });
      const std::string kname =
          std::string(spec.meta->isa) + "/" + spec.meta->variant;
      spec_rows.push_back(
          {s.name, "fp32", s.k, s.c_in, s.c_out, st, g_ms, s_ms, kname});
      std::printf("%-18s %-5s %-10s %9.3fms %10.3fms %7.2fx\n", s.name,
                  "fp32", kname.c_str(), g_ms, s_ms, g_ms / s_ms);
    }

    // i8: channel-group u8 rows with a zero-point lead.
    {
      const index_t stride = lead + st;
      const index_t g_in = kern::quant_groups(s.c_in);
      std::vector<std::uint8_t> x(
          static_cast<std::size_t>(sn * g_in * kern::kQuantCiGroup * stride));
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = static_cast<std::uint8_t>((i * 31 + 7) % 256);
      }
      for (index_t r = 0; r < sn * g_in; ++r) {
        std::memset(x.data() + r * kern::kQuantCiGroup * stride, 128,
                    static_cast<std::size_t>(kern::kQuantCiGroup * lead));
      }
      const std::uint8_t* xp = x.data() + kern::kQuantCiGroup * lead;
      std::vector<std::int8_t> wq(
          static_cast<std::size_t>(s.c_out * s.c_in * s.k));
      for (std::size_t i = 0; i < wq.size(); ++i) {
        wq[i] = static_cast<std::int8_t>((i * 53 + 11) % 255 - 127);
      }
      std::vector<std::int8_t> wp(
          static_cast<std::size_t>(kern::packed_weight_bytes_i8(d)));
      kern::pack_conv_weight_i8(wq.data(), d, wp.data());
      const index_t co_round =
          (s.c_out + kern::kQuantCo - 1) / kern::kQuantCo * kern::kQuantCo;
      std::vector<float> m(static_cast<std::size_t>(co_round), 0.001F);
      std::vector<float> bq(static_cast<std::size_t>(co_round), 128.0F);
      std::vector<std::uint8_t> yq(static_cast<std::size_t>(
          sn * kern::quant_groups(s.c_out) * kern::kQuantCiGroup * st));
      const auto spec = reg.conv_packed_i8(sig);
      const auto gen = reg.conv_packed_i8_generic();
      const double g_ms = time_ms([&] {
        gen.fn(xp, wp.data(), m.data(), bq.data(), yq.data(), nullptr, d,
               stride, st, /*relu=*/true, /*out_lo=*/128);
      });
      const double s_ms = time_ms([&] {
        spec.fn(xp, wp.data(), m.data(), bq.data(), yq.data(), nullptr, d,
                stride, st, /*relu=*/true, /*out_lo=*/128);
      });
      const std::string kname =
          std::string(spec.meta->isa) + "/" + spec.meta->variant;
      spec_rows.push_back(
          {s.name, "i8", s.k, s.c_in, s.c_out, st, g_ms, s_ms, kname});
      std::printf("%-18s %-5s %-10s %9.3fms %10.3fms %7.2fx\n", s.name, "i8",
                  kname.c_str(), g_ms, s_ms, g_ms / s_ms);
    }
  }

  // The gated aggregates: each training kernel's best stride-1 speedup
  // (the search hot path; shape names end in "_s<stride>"), and the best
  // specialization win over rows that did not fall back to the generic
  // kernel. 0 when no row qualifies.
  auto best_s1 = [&](const std::string& kernel) {
    double best = 0.0;
    for (const CompareRow& r : rows) {
      if (r.kernel == kernel && r.shape.ends_with("_s1")) {
        best = std::max(best, r.scalar_ms / r.blocked_ms);
      }
    }
    return best;
  };
  double best_specialized = 0.0;
  for (const SpecRow& r : spec_rows) {
    if (!r.kernel.ends_with("/generic")) {
      best_specialized =
          std::max(best_specialized, r.generic_ms / r.specialized_ms);
    }
  }

  int threads = 1;
#ifdef _OPENMP
  threads = omp_get_max_threads();
#endif
  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"kernels_backend_compare\",\n"
      << "  \"threads\": " << threads << ",\n"
      << "  \"fp32_isa\": \"" << reg.fp32_isa() << "\",\n"
      << "  \"i8_isa\": \"" << reg.i8_isa() << "\",\n"
      << "  \"best_s1_speedup\": {\"forward\": " << best_s1("forward")
      << ", \"backward_input\": " << best_s1("backward_input")
      << ", \"backward_weight\": " << best_s1("backward_weight") << "},\n"
      << "  \"best_specialized_speedup\": " << best_specialized << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CompareRow& r = rows[i];
    out << "    {\"shape\": \"" << r.shape << "\", \"kernel\": \"" << r.kernel
        << "\", \"macs\": " << r.macs << ", \"scalar_ms\": " << r.scalar_ms
        << ", \"blocked_ms\": " << r.blocked_ms
        << ", \"speedup\": " << r.scalar_ms / r.blocked_ms << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"specialized\": [\n";
  for (std::size_t i = 0; i < spec_rows.size(); ++i) {
    const SpecRow& r = spec_rows[i];
    out << "    {\"shape\": \"" << r.shape << "\", \"dtype\": \"" << r.dtype
        << "\", \"k\": " << r.k << ", \"c_in\": " << r.c_in
        << ", \"c_out\": " << r.c_out << ", \"t\": " << r.t
        << ", \"generic_ms\": " << r.generic_ms
        << ", \"specialized_ms\": " << r.specialized_ms
        << ", \"speedup\": " << r.generic_ms / r.specialized_ms
        << ", \"kernel\": \"" << r.kernel << "\"}"
        << (i + 1 < spec_rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s (threads=%d)\n", json_path, threads);
}

}  // namespace pit

int main(int argc, char** argv) {
  bool compare_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compare-only") == 0) {
      compare_only = true;
      std::swap(argv[i], argv[argc - 1]);
      --argc;
      break;
    }
  }
  if (!compare_only) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  pit::run_backend_compare("BENCH_kernels.json");
  return 0;
}
