// Internal vocabulary shared by the compiled runtime's translation units
// (plan_builder.cpp, quant_lowering.cpp, verify.cpp, executor_batched.cpp,
// executor_step.cpp). Not part of the public interface —
// runtime/compiled_net.hpp and runtime/quantize_plan.hpp stay the only
// headers callers see.
#pragma once

#include <vector>

#include "runtime/compiled_net.hpp"

namespace pit::runtime::detail {

/// Ring slots a streaming conv keeps per input row: the current input
/// plus the (k-1)*dilation past steps its oldest tap reaches back to.
inline index_t ring_span(const Op& op) {
  return (op.k - 1) * op.dilation + 1;
}

/// The streaming layout of a program whose rows interleave `group`
/// channels: every conv's ring and every storage root's step vector,
/// packed in op / value order (plan_builder.cpp). The planner stores it;
/// the verifier and the step executor's bind re-derive it to check the
/// stored one.
StreamLayout stream_layout(const std::vector<Op>& ops,
                           const std::vector<Value>& values,
                           const std::vector<ValueId>& root, index_t group);

}  // namespace pit::runtime::detail
