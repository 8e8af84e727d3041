// Size-gated OpenMP loop for the autograd training step.
//
// BatchNorm, the unary ops, average pooling, the linear layer, the conv
// bias gradient, Adam and the masked conv's mask chain run their loops on
// the same OpenMP pool as the blocked conv kernels. Every one of them
// keeps to one rule, so its results are bit-identical at 1, 2 or N
// threads and to the plain serial loop:
//
//  1. Split independent outputs (elements, channels, rows, taps), never
//     a reduction: each output is computed whole by one thread.
//  2. Keep each output's serial order: a sum adds its terms in the order
//     the plain loop does, in the same precision, with the same
//     expression (no reassociation, no partial sums).
//  3. Interleave several outputs' chains. One output's sum is a single
//     dependent add chain, bound by the add's latency; a thread that
//     advances the chains of kChainBlock outputs in one loop keeps that
//     many adds in flight. parallel_for_blocks hands out such blocks.
#pragma once

#include <type_traits>

#include "tensor/shape.hpp"

namespace pit {

/// Below this much work (elements touched, or MACs for the linear layer)
/// an OpenMP fork costs more than the loop it splits, so the loop runs on
/// the calling thread. Every gated loop compares its own work count
/// against this one value, as the conv kernels do with kBlockedMinMacs.
inline constexpr index_t kParallelMinWork = 16384;

/// Outputs whose reduction chains one thread advances together (rule 3).
inline constexpr index_t kChainBlock = 4;

/// Runs body(i) for i in [0, n): on the calling thread when `work` is
/// below kParallelMinWork (no OpenMP region is entered at all), otherwise
/// split statically over the OpenMP pool. Iterations must be independent.
template <typename Body>
void parallel_for(index_t n, index_t work, const Body& body) {
  if (work < kParallelMinWork) {
    for (index_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < n; ++i) {
    body(i);
  }
}

/// Chain count of one parallel_for_blocks call, as a compile-time value
/// so the body's per-chain arrays unroll into registers.
template <index_t K>
using Chains = std::integral_constant<index_t, K>;

/// parallel_for over the outputs [0, n) in chain blocks (rule 3):
/// body(Chains<kChainBlock>{}, lo) covers outputs [lo, lo + kChainBlock),
/// and the n % kChainBlock outputs past the last full block each get
/// body(Chains<1>{}, i). Blocks are independent, as in parallel_for.
template <typename Body>
void parallel_for_blocks(index_t n, index_t work, const Body& body) {
  const index_t full = n / kChainBlock;
  parallel_for(full + n % kChainBlock, work, [&](index_t b) {
    if (b < full) {
      body(Chains<kChainBlock>{}, b * kChainBlock);
    } else {
      body(Chains<1>{}, full * kChainBlock + (b - full));
    }
  });
}

}  // namespace pit
