// What the benchmark serves and how it checks the answers: seeded input
// windows from four signal families, the paper-sized TempoNet plans
// (fp32 and int8, windowed and streaming), and the output oracles.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/compiled_net.hpp"
#include "tensor/random.hpp"

namespace pitperf {

using pit::index_t;

/// Fills one (c, t) window, row-major, from signal family `family`
/// (0 PPG, 1 ECG, 2 sEMG, 3 KWS) with parameters drawn from `rng`.
void fill_family(int family, pit::RandomEngine& rng, float* dst, index_t c,
                 index_t t);

/// `count` windows of (c, t), family i % 4, all drawn from `seed`.
std::vector<float> make_windows(std::uint64_t seed, std::size_t count,
                                index_t c, index_t t);

enum Need : unsigned {
  kSubmitF32 = 1U,
  kSubmitI8 = 2U,
  kStreamF32 = 4U,
  kStreamI8 = 8U,
};

/// The served plans: paper TempoNet (4 x 256 windows) and its 4 -> 128
/// conv backbone, compiled with verification, int8 lowered from windows
/// of the workload's seed.
struct Served {
  std::shared_ptr<const pit::runtime::CompiledPlan> submit_f32, submit_i8,
      stream_f32, stream_i8;
  double compile_ms = 0.0;   ///< compile_plan + compile_stream_backbone
  double quantize_ms = 0.0;  ///< calibration + int8 lowering
};

/// Builds the model (fixed weights), warms BatchNorm on seeded windows,
/// and compiles/lowers the plans named in `need`.
Served build_served(std::uint64_t seed, unsigned need);

/// References for SUBMIT: a pool of seeded windows and the batch-1
/// CompiledPlan::forward output of each.
struct SubmitOracle {
  index_t c = 0, t = 0, out_n = 0;
  std::size_t pool = 0;
  std::vector<float> inputs;  ///< pool x c x t
  std::vector<float> refs;    ///< pool x out_n
  const float* input(std::size_t i) const {
    return inputs.data() + i * static_cast<std::size_t>(c * t);
  }
  const float* ref(std::size_t i) const {
    return refs.data() + i * static_cast<std::size_t>(out_n);
  }
};
SubmitOracle make_submit_oracle(const pit::runtime::CompiledPlan& plan,
                                std::uint64_t seed, std::size_t pool);

/// References for STEP: seeded tick sequences and the outputs of a fresh
/// StreamSession replaying each one on the same plan.
struct StreamOracle {
  index_t c_in = 0, c_out = 0;
  int ticks = 0;
  std::size_t pool = 0;
  std::vector<float> inputs;  ///< pool x ticks x c_in
  std::vector<float> refs;    ///< pool x ticks x c_out
  const float* input(std::size_t seq, int tick) const {
    return inputs.data() +
           (seq * static_cast<std::size_t>(ticks) + static_cast<std::size_t>(tick)) *
               static_cast<std::size_t>(c_in);
  }
  const float* ref(std::size_t seq, int tick) const {
    return refs.data() +
           (seq * static_cast<std::size_t>(ticks) + static_cast<std::size_t>(tick)) *
               static_cast<std::size_t>(c_out);
  }
};
StreamOracle make_stream_oracle(
    const std::shared_ptr<const pit::runtime::CompiledPlan>& plan,
    std::uint64_t seed, std::size_t pool, int ticks);

/// Bit-exact comparison of two float arrays.
bool same_bits(const float* a, const float* b, std::size_t n);

}  // namespace pitperf
