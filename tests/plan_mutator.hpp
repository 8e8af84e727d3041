// Test-only corruption seeding for the plan verifier (runtime/verify.hpp).
//
// PlanMutator is a friend of CompiledPlan that flips exactly one planned
// invariant per mutation — arena offsets, row layouts, kernel bindings,
// ring sizes, quantization parameters, pool offsets — so the mutation
// suite can assert that verify_plan() rejects each corruption with a
// diagnostic anchored to the RIGHT invariant, not merely that it fails.
// The layout mutations are templated on the program's element type
// (float: the fp32 program, std::uint8_t: the quantized one), since both
// programs share one layout shape. Every mutation returns false when the
// plan has no site to corrupt (e.g. no streaming layout to shrink, or no
// u8 program), letting tests skip gracefully.
#pragma once

#include <cstdint>
#include <type_traits>

#include "nn/kernels/registry.hpp"
#include "runtime/compiled_net.hpp"

namespace pit::runtime {

class PlanMutator {
 public:
  // ---- layout mutations, applicable to either program -------------------

  /// Two simultaneously-live arena regions forced onto one offset.
  template <typename T>
  static bool overlap_offsets(CompiledPlan& p) {
    detail::Program<T>* prog = program<T>(p);
    if (prog == nullptr) {
      return false;
    }
    for (const detail::Op& op : p.ops_) {
      const std::size_t rin = root(p, op.in0);
      const std::size_t rout = root(p, op.out);
      if (rin != rout && prog->offset[rin] >= 0 &&
          prog->offset[rout] >= 0) {
        prog->offset[rout] = prog->offset[rin];
        return true;
      }
    }
    return false;
  }

  /// Arena truncated below the highest planned region end.
  template <typename T>
  static bool shrink_arena(CompiledPlan& p) {
    detail::Program<T>* prog = program<T>(p);
    if (prog == nullptr || prog->arena <= 0) {
      return false;
    }
    prog->arena -= 1;
    return true;
  }

  /// A padded row's causal lead shaved by one step (stride kept
  /// consistent, so only the kernel footprint check can object).
  template <typename T>
  static bool truncate_lead(CompiledPlan& p) {
    detail::Program<T>* prog = program<T>(p);
    for (std::size_t v = 0; prog != nullptr && v < p.values_.size(); ++v) {
      if (prog->lead[v] > 0 && prog->offset[v] >= 0) {
        prog->lead[v] -= 1;
        prog->stride[v] -= 1;
        return true;
      }
    }
    return false;
  }

  /// Row-stride bookkeeping broken (stride != lead + steps + slack).
  template <typename T>
  static bool corrupt_stride(CompiledPlan& p) {
    detail::Program<T>* prog = program<T>(p);
    for (std::size_t v = 0; prog != nullptr && v < p.values_.size(); ++v) {
      if (prog->offset[v] >= 0) {
        prog->stride[v] += 1;
        return true;
      }
    }
    return false;
  }

  /// Streaming ring shrunk below (k-1)*dilation+1 slots per input row.
  template <typename T>
  static bool shrink_ring(CompiledPlan& p) {
    detail::Program<T>* prog = program<T>(p);
    if (prog == nullptr || !p.streamable_ || prog->stream.ring <= 0) {
      return false;
    }
    prog->stream.ring -= 1;
    return true;
  }

  /// A step-vector offset nudged off the packed layout.
  template <typename T>
  static bool corrupt_vec_off(CompiledPlan& p) {
    detail::Program<T>* prog = program<T>(p);
    if (prog == nullptr || !p.streamable_) {
      return false;
    }
    for (index_t& off : prog->stream.vec_off) {
      if (off > 0) {
        off -= 1;
        return true;
      }
    }
    return false;
  }

  // ---- fp32 program: params and bindings --------------------------------

  /// A conv/linear weight block handle pushed past the plan's block table.
  static bool overflow_param_offset(CompiledPlan& p) {
    for (std::size_t i = 0; i < p.ops_.size(); ++i) {
      const detail::OpKind k = p.ops_[i].kind;
      if (k == detail::OpKind::kConv || k == detail::OpKind::kLinear) {
        p.fp32_.ops[i].w_blk = p.fp32_.params.count();
        return true;
      }
    }
    return false;
  }

  /// A packed conv's kernel binding nulled out.
  static bool null_conv_binding(CompiledPlan& p) {
    for (std::size_t i = 0; i < p.ops_.size(); ++i) {
      if (detail::packed_conv(p.ops_[i])) {
        p.fp32_.ops[i].bind.conv = nullptr;
        return true;
      }
    }
    return false;
  }

  /// Two packed convs' bindings exchanged; falls back to nulling one when
  /// the registry resolves both signatures to the same kernel (then a
  /// swap would be invisible — and harmless).
  static bool swap_conv_bindings(CompiledPlan& p) {
    detail::OpBinding* first = nullptr;
    for (std::size_t i = 0; i < p.ops_.size(); ++i) {
      if (!detail::packed_conv(p.ops_[i])) {
        continue;
      }
      detail::OpBinding& bind = p.fp32_.ops[i].bind;
      if (first == nullptr) {
        first = &bind;
        continue;
      }
      if (bind.conv != first->conv || bind.meta != first->meta) {
        std::swap(*first, bind);
        return true;
      }
    }
    return null_conv_binding(p);
  }

  /// A streaming step binding replaced by the inline-op meta.
  static bool corrupt_step_binding(CompiledPlan& p) {
    for (std::size_t i = 0; i < p.ops_.size(); ++i) {
      detail::OpBinding& bind = p.fp32_.ops[i].bind;
      if (detail::packed_conv(p.ops_[i]) && bind.step_meta != nullptr) {
        bind.step = nullptr;
        bind.step_meta = &nn::kernels::Registry::inline_meta();
        return true;
      }
    }
    return false;
  }

  // ---- u8 program: quantization and bindings (no-ops on fp32 plans) ------

  /// The staged input's u8 scale zeroed (degenerate affine params).
  static bool zero_quant_scale(CompiledPlan& p) {
    if (!p.u8_) {
      return false;
    }
    p.u8_->qparams[root(p, p.input_)].scale = 0.0F;
    return true;
  }

  /// A requantizing store's lower clamp decoupled from its ReLU/zero-point
  /// rule.
  static bool corrupt_out_lo(CompiledPlan& p) {
    if (!p.u8_) {
      return false;
    }
    for (detail::QuantOp& qop : p.u8_->ops) {
      if (!qop.out_float) {
        qop.out_lo += 7;
        return true;
      }
    }
    return false;
  }

  /// A packed s8 weight block handle pushed past the plan's block table.
  static bool overflow_qweight_offset(CompiledPlan& p) {
    if (!p.u8_) {
      return false;
    }
    for (std::size_t i = 0; i < p.ops_.size(); ++i) {
      const detail::OpKind k = p.ops_[i].kind;
      if (k == detail::OpKind::kConv || k == detail::OpKind::kLinear) {
        p.u8_->ops[i].w_blk = p.u8_->weights.count();
        return true;
      }
    }
    return false;
  }

  /// An i8 conv binding replaced by the inline-op meta.
  static bool swap_quant_binding(CompiledPlan& p) {
    if (!p.u8_) {
      return false;
    }
    for (std::size_t i = 0; i < p.ops_.size(); ++i) {
      if (p.ops_[i].kind == detail::OpKind::kConv) {
        p.u8_->ops[i].bind.meta = &nn::kernels::Registry::inline_meta();
        return true;
      }
    }
    return false;
  }

  // ---- hostile-kernel hook (hardening tests) ----------------------------

  /// Replaces op `index`'s packed fp32 conv kernel, returning the genuine
  /// one — lets a test run a wrapper that mis-writes on purpose and prove
  /// the sanitizer/canary layer catches it.
  static nn::kernels::ConvPackedF32Fn set_conv_fn(
      CompiledPlan& p, std::size_t index, nn::kernels::ConvPackedF32Fn fn) {
    detail::OpBinding& bind = p.fp32_.ops[index].bind;
    nn::kernels::ConvPackedF32Fn old = bind.conv;
    bind.conv = fn;
    return old;
  }

 private:
  template <typename T>
  static detail::Program<T>* program(CompiledPlan& p) {
    if constexpr (std::is_same_v<T, float>) {
      return &p.fp32_;
    } else {
      return p.u8_ ? &*p.u8_ : nullptr;
    }
  }

  static std::size_t root(const CompiledPlan& p, ValueId v) {
    return static_cast<std::size_t>(p.root_[static_cast<std::size_t>(v)]);
  }
};

}  // namespace pit::runtime
