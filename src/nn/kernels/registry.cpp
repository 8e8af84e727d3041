// Registry construction and bind logic. See registry.hpp for the model.
#include "nn/kernels/registry.hpp"

#include "tensor/error.hpp"

namespace pit::nn::kernels {

const Registry& Registry::instance() {
  // Magic static: constructed once, immutable afterwards — concurrent
  // first calls are serialized by the compiler, so plan builders on any
  // thread see a fully-registered table.
  static const Registry reg;
  return reg;
}

Registry::Registry()
    : train_scalar_{&scalar::conv_forward,
                    &scalar::conv_backward_input,
                    &scalar::conv_backward_weight,
                    {"conv.train.f32", "train", "scalar", false}} {
  blocked::register_kernels(*this);
  quant::register_kernels(*this);
  fp32_isa_ = conv_packed_f32_generic().meta->isa;
  i8_isa_ = conv_packed_i8_generic().meta->isa;
}

const KernelMeta& Registry::inline_meta() {
  static const KernelMeta meta{"builtin", "inline", "cpp", false};
  return meta;
}

template <typename Fn>
Bound<Fn> Registry::bind(const std::vector<Entry<Fn>>& table,
                         const ConvSig& sig, bool allow_specialized) const {
  const Entry<Fn>* best = nullptr;
  for (const Entry<Fn>& e : table) {
    if (e.meta.specialized) {
      if (!allow_specialized) {
        continue;
      }
      if (e.k != 0 && e.k != sig.k) {
        continue;
      }
      if (e.quad_cin && sig.c_in % 4 != 0) {
        continue;
      }
    }
    if (best == nullptr || (e.meta.specialized && !best->meta.specialized)) {
      best = &e;
    }
  }
  PIT_CHECK(best != nullptr, "kernel registry: no variant registered");
  return {best->fn, &best->meta};
}

Bound<ConvPackedF32Fn> Registry::conv_packed_f32(const ConvSig& sig) const {
  return bind(conv_packed_f32_, sig, true);
}

Bound<ConvStepF32Fn> Registry::conv_step_f32(const ConvSig& sig) const {
  return bind(conv_step_f32_, sig, true);
}

Bound<LinearF32Fn> Registry::linear_f32() const {
  return bind(linear_f32_, ConvSig{}, false);
}

const ConvTrainF32& Registry::conv_train_f32(const ConvDims& dims) const {
  return conv_macs(dims) >= kBlockedMinMacs ? train_blocked_ : train_scalar_;
}

Bound<ConvPackedI8Fn> Registry::conv_packed_i8(const ConvSig& sig) const {
  return bind(conv_packed_i8_, sig, true);
}

Bound<ConvStepI8Fn> Registry::conv_step_i8(const ConvSig& sig) const {
  return bind(conv_step_i8_, sig, true);
}

Bound<AddI8Fn> Registry::add_i8() const {
  return bind(add_i8_, ConvSig{}, false);
}

Bound<StageI8Fn> Registry::stage_i8() const {
  return bind(stage_i8_, ConvSig{}, false);
}

Bound<ConvPackedF32Fn> Registry::conv_packed_f32_generic() const {
  return bind(conv_packed_f32_, ConvSig{}, false);
}

Bound<ConvStepF32Fn> Registry::conv_step_f32_generic() const {
  return bind(conv_step_f32_, ConvSig{}, false);
}

Bound<ConvPackedI8Fn> Registry::conv_packed_i8_generic() const {
  return bind(conv_packed_i8_, ConvSig{}, false);
}

Bound<ConvStepI8Fn> Registry::conv_step_i8_generic() const {
  return bind(conv_step_i8_, ConvSig{}, false);
}

KernelFootprint Registry::conv_packed_f32_footprint(const ConvSig& sig,
                                                    index_t dilation,
                                                    bool x_padded) {
  if (!x_padded) {
    // The unpadded path bounds-checks every tap: row data only.
    return {};
  }
  return {(sig.k - 1) * dilation, kPackTimeTile, 0};
}

KernelFootprint Registry::conv_packed_i8_footprint(const ConvSig& sig,
                                                   index_t dilation) {
  // Interleaved u8 rows advance kQuantCiGroup bytes per time step, so the
  // (k-1)*dilation causal look-back spans that many bytes per group row.
  return {kQuantCiGroup * (sig.k - 1) * dilation, 0, 0};
}

void Registry::add_conv_packed_f32(ConvPackedF32Fn fn, const char* variant,
                                   const char* isa, index_t k,
                                   bool quad_cin) {
  conv_packed_f32_.push_back(
      {fn, {"conv.packed.f32", variant, isa, k != 0}, k, quad_cin});
}

void Registry::add_conv_step_f32(ConvStepF32Fn fn, const char* variant,
                                 const char* isa, index_t k, bool quad_cin) {
  conv_step_f32_.push_back(
      {fn, {"conv.step.f32", variant, isa, k != 0}, k, quad_cin});
}

void Registry::add_linear_f32(LinearF32Fn fn, const char* isa) {
  linear_f32_.push_back({fn, {"linear.f32", "generic", isa, false}, 0, false});
}

void Registry::add_conv_train_f32(ConvTrainF32Fn forward,
                                  ConvBackwardInputF32Fn backward_input,
                                  ConvBackwardWeightF32Fn backward_weight,
                                  const char* isa) {
  train_blocked_ = {forward, backward_input, backward_weight,
                    {"conv.train.f32", "train", isa, false}};
}

void Registry::add_conv_packed_i8(ConvPackedI8Fn fn, const char* variant,
                                  const char* isa, index_t k) {
  conv_packed_i8_.push_back(
      {fn, {"conv.packed.i8", variant, isa, k != 0}, k, false});
}

void Registry::add_conv_step_i8(ConvStepI8Fn fn, const char* variant,
                                const char* isa, index_t k) {
  conv_step_i8_.push_back(
      {fn, {"conv.step.i8", variant, isa, k != 0}, k, false});
}

void Registry::add_add_i8(AddI8Fn fn, const char* isa) {
  add_i8_.push_back({fn, {"add.i8", "generic", isa, false}, 0, false});
}

void Registry::add_stage_i8(StageI8Fn fn, const char* isa) {
  stage_i8_.push_back({fn, {"stage.i8", "generic", isa, false}, 0, false});
}

}  // namespace pit::nn::kernels
