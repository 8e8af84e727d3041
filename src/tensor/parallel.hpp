// Size-gated OpenMP loop for the autograd training step.
//
// BatchNorm, the unary ops, average pooling, the linear layer, Adam and
// the masked conv's mask chain run their loops on the same OpenMP pool as
// the blocked conv kernels. Each loop splits only independent outputs
// (elements, channels, rows, taps) and never a reduction, so every output
// is computed by the same serial instruction sequence whatever the thread
// count: results are bit-identical at 1, 2 or N threads.
#pragma once

#include "tensor/shape.hpp"

namespace pit {

/// Below this much work (elements touched, or MACs for the linear layer)
/// an OpenMP fork costs more than the loop it splits, so the loop runs on
/// the calling thread. Every gated loop compares its own work count
/// against this one value, as the conv kernels do with kBlockedMinMacs.
inline constexpr index_t kParallelMinWork = 16384;

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

}  // namespace pit
