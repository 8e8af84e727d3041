// Model-specific compilers: TempoNet and ResTCN -> CompiledPlan.
//
// The searchable temporal convs of either model may be plain nn::Conv1d
// (an export_weights product, or a hand-tuned/dilated build) or PITConv1d
// straight out of the search with binarized gammas; both freeze to the
// same FrozenConv — the PIT layer is packed down to its surviving taps
// (core::exported_weight), which is exactly the collapse the paper sells.
//
// Plans are shape-specialized: the compiled plan serves any batch size but
// a fixed per-sample (C, T); compile again for a different input length.
// compile_plan() returns the shareable immutable plan; run it with one
// ExecutionContext per thread (see compiled_net.hpp).
#pragma once

#include <memory>

#include "models/restcn.hpp"
#include "models/temponet.hpp"
#include "runtime/compiled_net.hpp"

namespace pit::runtime {

/// Freezes any supported temporal-conv module: nn::Conv1d verbatim, or a
/// PITConv1d packed to the surviving taps of its current binarized
/// dilation. Throws for other module types.
FrozenConv freeze_temporal_conv(const nn::Module& conv);

/// Compiles a trained TempoNet into the frozen runtime plan: batch-norm
/// folded into each conv, ReLU fused, dropout dropped (eval semantics),
/// the FC head packed. Matches Module::forward in eval mode. A non-null
/// `pool` interns the packed weight blocks so identical layers dedup
/// across plans (see runtime/plan_registry.hpp).
std::shared_ptr<const CompiledPlan> compile_plan(const models::TempoNet& model,
                                                 WeightPool* pool = nullptr);

/// Compiles a trained ResTCN for inputs of `input_steps` time steps. The
/// resulting plan is streamable (all ops are stride-1 convs and adds).
std::shared_ptr<const CompiledPlan> compile_plan(const models::ResTCN& model,
                                                 index_t input_steps,
                                                 WeightPool* pool = nullptr);

/// Compiles TempoNet's temporal-conv backbone — the seven BN-folded,
/// ReLU-fused dilated convs, without the stride-2 pools and the FC head —
/// into a streamable plan over `input_steps`-step windows. This is the
/// paper's continuous-sensing deployment shape: a causal feature extractor
/// advanced one PPG/accelerometer tick at a time (StreamSession /
/// SessionManager); the pooled-and-flattened regression head stays on the
/// windowed forward() path.
std::shared_ptr<const CompiledPlan> compile_stream_backbone(
    const models::TempoNet& model, index_t input_steps,
    WeightPool* pool = nullptr);

}  // namespace pit::runtime
