// Size gate for the OpenMP loops of the autograd training step.
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

}  // namespace pit
