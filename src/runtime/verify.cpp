// Static verification pass over the compiled-plan IR. See verify.hpp for
// the invariant families; this TU re-derives each program's layout from
// the op list — one row-layout, one arena, and one streaming check, run
// once per program (fp32, and u8 when quantized) — and reports every
// divergence as a structured Issue.
#include "runtime/verify.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <type_traits>

#include "nn/kernels/registry.hpp"
#include "runtime/compiled_net.hpp"
#include "runtime/executor_detail.hpp"
#include "tensor/error.hpp"

namespace pit::runtime::analysis {

namespace {
using nn::kernels::KernelFootprint;
using nn::kernels::kQuantCiGroup;
using nn::kernels::quant_groups;
using nn::kernels::Registry;

std::atomic<bool> g_verify_enabled{true};
}  // namespace

const char* invariant_name(Invariant inv) {
  switch (inv) {
    case Invariant::kArenaOverlap:
      return "arena-overlap";
    case Invariant::kFootprint:
      return "footprint";
    case Invariant::kBinding:
      return "binding";
    case Invariant::kRing:
      return "ring";
    case Invariant::kQuantParams:
      return "quant-params";
    case Invariant::kParamPool:
      return "param-pool";
    case Invariant::kLayout:
      return "layout";
  }
  return "unknown";
}

std::string Issue::to_string() const {
  std::ostringstream os;
  os << '[' << invariant_name(invariant) << ']';
  if (op >= 0) {
    os << " op#" << op;
  }
  if (value >= 0) {
    os << " v" << value;
  }
  if (lo != 0 || hi != 0) {
    os << " [" << lo << ", " << hi << ')';
  }
  if (other_lo != 0 || other_hi != 0) {
    os << " vs [" << other_lo << ", " << other_hi << ')';
  }
  if (!registry_key.empty()) {
    os << " key=" << registry_key;
  }
  os << ": " << message;
  return os.str();
}

bool Report::has(Invariant inv) const {
  return std::any_of(issues.begin(), issues.end(),
                     [inv](const Issue& i) { return i.invariant == inv; });
}

std::string Report::to_string() const {
  if (issues.empty()) {
    return "plan verifies clean";
  }
  std::ostringstream os;
  os << issues.size() << " invariant violation(s):";
  for (const Issue& i : issues) {
    os << "\n  " << i.to_string();
  }
  return os.str();
}

/// Friend of CompiledPlan: read-only access to the planned layouts.
class PlanVerifier {
 public:
  explicit PlanVerifier(const CompiledPlan& plan) : p_(plan) {}

  Report run() {
    if (!check_structure()) {
      return std::move(report_);  // per-value arrays unusable; stop here
    }
    check_shapes();
    check_program(p_.fp32_);
    check_param_pool();
    check_bindings();
    if (p_.u8_) {
      const detail::Program<std::uint8_t>& u8 = *p_.u8_;
      check_program(u8);
      check_quant_params(u8);
      check_quant_pools(u8);
      check_quant_bindings(u8);
    }
    return std::move(report_);
  }

 private:
  // One live arena region: a storage root's planned block over its
  // inclusive op lifetime.
  struct Region {
    ValueId root = -1;
    long long lo = 0, hi = 0;  // half-open offset range
    int start = 0, end = 0;    // inclusive op interval
  };

  void issue(Invariant inv, int op, int value, long long lo, long long hi,
             long long olo, long long ohi, std::string key,
             std::string message) {
    report_.issues.push_back({inv, op, value, lo, hi, olo, ohi,
                              std::move(key), std::move(message)});
  }
  void issue(Invariant inv, int op, int value, std::string message) {
    issue(inv, op, value, 0, 0, 0, 0, {}, std::move(message));
  }

  bool value_ok(ValueId v) const {
    return v >= 0 && v < static_cast<ValueId>(p_.values_.size());
  }

  std::size_t root(ValueId v) const {
    return static_cast<std::size_t>(p_.root_[static_cast<std::size_t>(v)]);
  }

  // ---- structure: ids in range, per-value/per-op arrays sized ------------
  template <typename T>
  void check_sizes(const detail::Program<T>& prog, bool& ok) {
    const auto sized = [&](std::size_t got, std::size_t want,
                           const char* name) {
      if (got != want) {
        std::ostringstream os;
        os << detail::ProgramData<T>::kName << ' ' << name << " holds "
           << got << " entries for " << want;
        issue(Invariant::kLayout, -1, -1, os.str());
        ok = false;
      }
    };
    const std::size_t nv = p_.values_.size();
    sized(prog.offset.size(), nv, "offset");
    sized(prog.lead.size(), nv, "lead");
    sized(prog.slack.size(), nv, "slack");
    sized(prog.stride.size(), nv, "stride");
    sized(prog.ops.size(), p_.ops_.size(), "ops");
    if constexpr (std::is_same_v<T, std::uint8_t>) {
      sized(prog.qparams.size(), nv, "qparams");
    }
  }

  bool check_structure() {
    const auto nv = p_.values_.size();
    const auto no = p_.ops_.size();
    bool ok = p_.root_.size() == nv;
    if (!ok) {
      issue(Invariant::kLayout, -1, -1, "root_ is not sized per value");
    }
    check_sizes(p_.fp32_, ok);
    if (p_.u8_) {
      check_sizes(*p_.u8_, ok);
    }
    if (no == 0 || !value_ok(p_.input_) || !value_ok(p_.output_)) {
      issue(Invariant::kLayout, -1, -1,
            "empty op list or input/output value out of range");
      ok = false;
    }
    for (std::size_t i = 0; ok && i < no; ++i) {
      const detail::Op& op = p_.ops_[i];
      if (!value_ok(op.in0) || !value_ok(op.out) ||
          (op.kind == detail::OpKind::kAdd && !value_ok(op.in1))) {
        issue(Invariant::kLayout, static_cast<int>(i), -1,
              "op references a value id out of range");
        ok = false;
      }
    }
    if (!ok) {
      return false;
    }
    // Alias chains resolve to the stored roots (aliases point backwards).
    for (std::size_t v = 0; v < nv; ++v) {
      const ValueId a = p_.values_[v].alias_of;
      const ValueId want =
          a < 0 ? static_cast<ValueId>(v)
                : (a < static_cast<ValueId>(v)
                       ? p_.root_[static_cast<std::size_t>(a)]
                       : -1);
      if (want < 0 || p_.root_[v] != want) {
        issue(Invariant::kLayout, -1, static_cast<int>(v),
              "alias does not resolve to its storage root");
      }
    }
    return report_.ok();
  }

  // ---- per-op geometry against the recorded value shapes -----------------
  void check_shapes() {
    for (std::size_t i = 0; i < p_.ops_.size(); ++i) {
      const detail::Op& op = p_.ops_[i];
      const int oi = static_cast<int>(i);
      const detail::Value& in = p_.values_[static_cast<std::size_t>(op.in0)];
      const detail::Value& out = p_.values_[static_cast<std::size_t>(op.out)];
      const auto shape_issue = [&](const char* what) {
        std::ostringstream os;
        os << what << " (op geometry " << op.c_in << "->" << op.c_out << " t"
           << op.t_in << "->" << op.t_out << ")";
        issue(Invariant::kLayout, oi, op.out, os.str());
      };
      if (out.channels != op.c_out || out.steps != op.t_out) {
        shape_issue("output value shape disagrees with the op");
      }
      switch (op.kind) {
        case detail::OpKind::kConv:
          if (in.channels != op.c_in || in.steps != op.t_in) {
            shape_issue("conv input shape disagrees with the op");
          }
          if (op.t_out !=
              nn::causal_conv1d_output_steps(op.t_in, op.stride)) {
            shape_issue("conv t_out is not the causal output length");
          }
          break;
        case detail::OpKind::kLinear:
          if (in.steps != 1 || op.t_in != 1 || op.t_out != 1 ||
              in.channels != op.c_in) {
            shape_issue("linear requires a flat (steps == 1) input");
          }
          break;
        case detail::OpKind::kAvgPool:
          if (in.channels != op.c_in || in.steps != op.t_in ||
              op.c_in != op.c_out ||
              op.t_out != (op.t_in - op.k) / op.stride + 1) {
            shape_issue("avg_pool geometry disagrees with its values");
          }
          if ((op.t_out - 1) * op.stride + op.k > op.t_in) {
            std::ostringstream os;
            os << "pool window reads past t_in: (t_out-1)*stride + k = "
               << (op.t_out - 1) * op.stride + op.k << " > " << op.t_in;
            issue(Invariant::kFootprint, oi, op.in0, 0,
                  (op.t_out - 1) * op.stride + op.k, 0, op.t_in, {},
                  os.str());
          }
          break;
        case detail::OpKind::kAdd: {
          const detail::Value& in1 =
              p_.values_[static_cast<std::size_t>(op.in1)];
          if (in.channels != op.c_out || in.steps != op.t_out ||
              in1.channels != op.c_out || in1.steps != op.t_out) {
            shape_issue("add operand shapes disagree");
          }
          break;
        }
      }
      if (p_.streamable_ && !detail::packed_conv(op) &&
          op.kind != detail::OpKind::kAdd) {
        issue(Invariant::kRing, oi, -1,
              "plan is marked streamable but this op cannot stream");
      }
    }
  }

  // ---- one program's layout: rows, arena, streaming ---------------------
  template <typename T>
  void check_program(const detail::Program<T>& prog) {
    check_row_layout(prog);
    check_arena(prog);
    check_streaming(prog);
  }

  // Row bookkeeping, input staging, and kernel footprint containment.
  template <typename T>
  void check_row_layout(const detail::Program<T>& prog) {
    using Data = detail::ProgramData<T>;
    constexpr bool kFloat = std::is_same_v<T, float>;
    for (std::size_t v = 0; v < p_.values_.size(); ++v) {
      if (prog.lead[v] < 0 || prog.slack[v] < 0 ||
          prog.stride[v] !=
              prog.lead[v] + p_.values_[v].steps + prog.slack[v]) {
        std::ostringstream os;
        os << Data::kName << " row stride " << prog.stride[v] << " != lead "
           << prog.lead[v] << " + steps " << p_.values_[v].steps
           << " + slack " << prog.slack[v];
        issue(Invariant::kLayout, -1, static_cast<int>(v), os.str());
      }
    }
    const std::size_t in_root = root(p_.input_);
    if (Data::kAlwaysStage && prog.offset[in_root] < 0) {
      issue(Invariant::kLayout, -1, static_cast<int>(in_root),
            "u8 program does not stage its input into the arena");
    }
    const auto dense = [&](std::size_t r) {
      return prog.lead[r] == 0 && prog.slack[r] == 0;
    };
    for (std::size_t i = 0; i < p_.ops_.size(); ++i) {
      const detail::Op& op = p_.ops_[i];
      const int oi = static_cast<int>(i);
      const std::size_t rin = root(op.in0);
      if (detail::packed_conv(op)) {
        // The kernel reads its causal look-back from the lead and its tile
        // overreach from the slack; an external (unstaged) row has
        // neither, which only the fp32 kernel's clamped path tolerates.
        const bool staged = prog.offset[rin] >= 0;
        const nn::kernels::ConvSig sig{op.k, op.c_in, op.c_out};
        KernelFootprint fp;
        if constexpr (kFloat) {
          fp = Registry::conv_packed_f32_footprint(sig, op.dilation, staged);
        } else {
          fp = Registry::conv_packed_i8_footprint(sig, op.dilation);
        }
        const index_t before = staged ? Data::kGroup * prog.lead[rin] : 0;
        const index_t after = staged ? Data::kGroup * prog.slack[rin] : 0;
        if (before < fp.read_before || after < fp.read_after) {
          std::ostringstream os;
          os << Data::kName << " packed conv reads " << fp.read_before
             << " elements before and " << fp.read_after
             << " after each input row, the row holds " << before << " / "
             << after;
          issue(Invariant::kFootprint, oi, static_cast<int>(rin), before,
                after, fp.read_before, fp.read_after,
                kFloat ? "conv.packed.f32" : "conv.packed.i8", os.str());
        }
      } else if ((op.kind == detail::OpKind::kConv ||
                  op.kind == detail::OpKind::kLinear) &&
                 (!dense(rin) || !dense(root(op.out)))) {
        const bool linear = op.kind == detail::OpKind::kLinear;
        issue(Invariant::kFootprint, oi, static_cast<int>(rin), 0, 0, 0, 0,
              linear ? (kFloat ? "linear.f32" : "conv.packed.i8")
                     : "conv.train.f32",
              "strided conv / linear requires dense (unpadded) operand "
              "rows");
      }
    }
  }

  // Pairwise disjointness of simultaneously-live regions + capacity.
  void check_regions(const std::vector<Region>& regions, long long capacity,
                     const char* arena, const char* unit) {
    for (const Region& r : regions) {
      if (r.lo < 0 || r.hi > capacity) {
        std::ostringstream os;
        os << arena << " region falls outside the planned " << capacity
           << ' ' << unit;
        issue(Invariant::kArenaOverlap, -1, r.root, r.lo, r.hi, 0, capacity,
              {}, os.str());
      }
    }
    for (std::size_t a = 0; a < regions.size(); ++a) {
      for (std::size_t b = a + 1; b < regions.size(); ++b) {
        const Region& ra = regions[a];
        const Region& rb = regions[b];
        const bool live_together =
            !(ra.end < rb.start || rb.end < ra.start);
        const bool overlap = ra.lo < rb.hi && rb.lo < ra.hi;
        if (live_together && overlap) {
          std::ostringstream os;
          os << arena << " regions of v" << ra.root << " and v" << rb.root
             << " overlap while both live (ops " << std::max(ra.start,
                                                             rb.start)
             << ".." << std::min(ra.end, rb.end) << ", " << unit << ")";
          issue(Invariant::kArenaOverlap, -1, ra.root, ra.lo, ra.hi, rb.lo,
                rb.hi, {}, os.str());
        }
      }
    }
  }

  // Arena non-aliasing: re-derives every root's lifetime from the op list.
  template <typename T>
  void check_arena(const detail::Program<T>& prog) {
    constexpr bool kFloat = std::is_same_v<T, float>;
    const std::size_t nv = p_.values_.size();
    std::vector<int> def(nv, -1);
    std::vector<int> last(nv, -1);
    for (std::size_t i = 0; i < p_.ops_.size(); ++i) {
      const detail::Op& op = p_.ops_[i];
      if (op.in1 >= 0) {
        last[root(op.in1)] = static_cast<int>(i);
      }
      last[root(op.in0)] = static_cast<int>(i);
      def[root(op.out)] = static_cast<int>(i);
    }
    const std::size_t in_root = root(p_.input_);
    const std::size_t out_root = root(p_.output_);
    std::vector<Region> regions;
    for (std::size_t v = 0; v < nv; ++v) {
      if (p_.root_[v] != static_cast<ValueId>(v) || prog.offset[v] < 0) {
        continue;
      }
      if (v == out_root) {
        issue(Invariant::kArenaOverlap, -1, static_cast<int>(v),
              "the externally-buffered output carries an arena offset");
        continue;
      }
      Region r;
      r.root = static_cast<ValueId>(v);
      r.lo = prog.offset[v];
      r.hi = r.lo + static_cast<long long>(detail::Program<T>::row_groups(
                        p_.values_[v].channels)) *
                        detail::ProgramData<T>::kGroup * prog.stride[v];
      if (v == in_root) {
        r.start = 0;  // staged before op 0
        r.end = std::max(last[v], 0);
      } else if (def[v] < 0) {
        issue(Invariant::kArenaOverlap, -1, static_cast<int>(v),
              "planned value is never produced by any op");
        continue;
      } else {
        r.start = def[v];
        r.end = std::max(last[v], def[v]);
      }
      regions.push_back(r);
    }
    check_regions(regions, prog.arena,
                  kFloat ? "fp32 arena" : "u8 arena",
                  kFloat ? "floats" : "bytes");
    // Every operand an op touches must be planned in the arena, except
    // the external buffers: the output an op writes, and — for fp32, whose
    // ops read them in place — the caller's input and the output tensor.
    for (std::size_t i = 0; i < p_.ops_.size(); ++i) {
      const detail::Op& op = p_.ops_[i];
      const auto planned = [&](ValueId v, bool write) {
        const std::size_t r = root(v);
        const bool external = r == out_root ? (write || kFloat)
                                            : (r == in_root && kFloat);
        if (!external && prog.offset[r] < 0) {
          issue(Invariant::kArenaOverlap, static_cast<int>(i),
                static_cast<int>(r),
                "operand's storage root has no arena offset");
        }
      };
      planned(op.in0, false);
      if (op.in1 >= 0) {
        planned(op.in1, false);
      }
      planned(op.out, true);
    }
  }

  // Streaming ring / step-vector layout against a fresh re-derivation.
  template <typename T>
  void check_streaming(const detail::Program<T>& prog) {
    if (!p_.streamable_) {
      return;
    }
    const detail::StreamLayout& got = prog.stream;
    if (got.ring_off.size() != p_.ops_.size() ||
        got.vec_off.size() != p_.values_.size()) {
      issue(Invariant::kRing, -1, -1,
            "streaming layout arrays are missing or mis-sized");
      return;
    }
    const detail::StreamLayout want = detail::stream_layout(
        p_.ops_, p_.values_, p_.root_, detail::ProgramData<T>::kGroup);
    const char* name = detail::ProgramData<T>::kName;
    for (std::size_t i = 0; i < p_.ops_.size(); ++i) {
      if (got.ring_off[i] != want.ring_off[i]) {
        std::ostringstream os;
        os << name << " conv ring offset " << got.ring_off[i]
           << ", expected " << want.ring_off[i]
           << " ((k-1)*dilation+1 slots per input row)";
        issue(Invariant::kRing, static_cast<int>(i), -1, got.ring_off[i], 0,
              want.ring_off[i], 0, {}, os.str());
      }
    }
    if (got.ring != want.ring) {
      std::ostringstream os;
      os << name << " ring arena holds " << got.ring << " elements, ops need "
         << want.ring;
      issue(Invariant::kRing, -1, -1, got.ring, 0, want.ring, 0, {},
            os.str());
    }
    for (std::size_t v = 0; v < p_.values_.size(); ++v) {
      if (got.vec_off[v] != want.vec_off[v]) {
        std::ostringstream os;
        os << name << " step-vector offset mismatch";
        issue(Invariant::kRing, -1, static_cast<int>(v), got.vec_off[v], 0,
              want.vec_off[v], 0, {}, os.str());
      }
    }
    if (got.vecs != want.vecs) {
      std::ostringstream os;
      os << name << " step-vector arena total mismatch";
      issue(Invariant::kRing, -1, -1, got.vecs, 0, want.vecs, 0, {},
            os.str());
    }
  }

  // ---- packed parameter block containment --------------------------------
  // Blocks are shared (refcounted, possibly interned across plans), so the
  // check is per handle: it must resolve inside the plan's block table AND
  // the resolved block must hold exactly the element count the op's
  // geometry demands — a stronger guarantee than the flat-pool offset
  // containment this replaces.
  void check_param_pool() {
    const BlockTable<float>& params = p_.fp32_.params;
    const index_t nblocks = params.count();
    const auto contained = [&](int oi, index_t blk, index_t count,
                               const char* what) {
      if (blk < 0 || blk >= nblocks) {
        std::ostringstream os;
        os << what << " block handle falls outside the param block table";
        issue(Invariant::kParamPool, oi, -1, blk, blk + 1, 0, nblocks, {},
              os.str());
        return;
      }
      if (params.size(blk) != count) {
        std::ostringstream os;
        os << what << " block holds " << params.size(blk)
           << " floats, op geometry needs " << count;
        issue(Invariant::kParamPool, oi, -1, params.size(blk), 0, count, 0,
              {}, os.str());
      }
    };
    for (std::size_t i = 0; i < p_.ops_.size(); ++i) {
      const detail::Op& op = p_.ops_[i];
      const detail::F32Op& lo = p_.fp32_.ops[i];
      const int oi = static_cast<int>(i);
      switch (op.kind) {
        case detail::OpKind::kConv: {
          index_t wfloats = op.c_out * op.c_in * op.k;
          if (detail::packed_conv(op)) {
            nn::kernels::ConvDims dims{};
            dims.c_in = op.c_in;
            dims.c_out = op.c_out;
            dims.k = op.k;
            wfloats = nn::kernels::packed_weight_floats(dims);
          }
          contained(oi, lo.w_blk, wfloats, "conv weights");
          if (lo.b_blk >= 0) {
            contained(oi, lo.b_blk, op.c_out, "conv bias");
          }
          break;
        }
        case detail::OpKind::kLinear:
          contained(oi, lo.w_blk, op.c_out * op.c_in, "linear weights");
          if (lo.b_blk >= 0) {
            contained(oi, lo.b_blk, op.c_out, "linear bias");
          }
          break;
        case detail::OpKind::kAvgPool:
        case detail::OpKind::kAdd:
          break;
      }
    }
  }

  // ---- fp32 binding coherence: re-bind and compare -----------------------
  void check_bindings() {
    const Registry& reg = Registry::instance();
    const auto mismatch = [&](int oi, const char* key, const char* what) {
      std::ostringstream os;
      os << what << " differs from what the registry binds for the op's "
         << "signature";
      issue(Invariant::kBinding, oi, -1, 0, 0, 0, 0, key, os.str());
    };
    for (std::size_t i = 0; i < p_.ops_.size(); ++i) {
      const detail::Op& op = p_.ops_[i];
      const detail::OpBinding& bind = p_.fp32_.ops[i].bind;
      const int oi = static_cast<int>(i);
      switch (op.kind) {
        case detail::OpKind::kConv:
          if (detail::packed_conv(op)) {
            const nn::kernels::ConvSig sig{op.k, op.c_in, op.c_out};
            const auto conv = reg.conv_packed_f32(sig);
            if (bind.conv != conv.fn || bind.meta != conv.meta) {
              mismatch(oi, "conv.packed.f32", "packed conv binding");
            }
            const auto step = reg.conv_step_f32(sig);
            if (bind.step != step.fn || bind.step_meta != step.meta) {
              mismatch(oi, "conv.step.f32", "streaming step binding");
            }
          } else {
            nn::kernels::ConvDims dims{};
            dims.n = 1;
            dims.c_in = op.c_in;
            dims.c_out = op.c_out;
            dims.k = op.k;
            dims.t_in = op.t_in;
            dims.t_out = op.t_out;
            dims.dilation = op.dilation;
            dims.stride = op.stride;
            const auto& train = reg.conv_train_f32(dims);
            if (bind.conv_train != train.forward ||
                bind.meta != &train.meta) {
              mismatch(oi, "conv.train.f32", "strided conv binding");
            }
          }
          break;
        case detail::OpKind::kLinear: {
          const auto lin = reg.linear_f32();
          if (bind.linear != lin.fn || bind.meta != lin.meta) {
            mismatch(oi, "linear.f32", "linear binding");
          }
          break;
        }
        case detail::OpKind::kAvgPool:
        case detail::OpKind::kAdd:
          if (bind.meta != &Registry::inline_meta()) {
            mismatch(oi, "builtin/inline", "inline-op meta");
          }
          break;
      }
    }
  }

  // ---- quantization parameter sanity -------------------------------------
  void check_quant_params(const detail::Program<std::uint8_t>& u8) {
    const auto check_value = [&](std::size_t r, int oi) {
      const quant::QuantParams& qp = u8.qparams[r];
      if (!std::isfinite(qp.scale) || qp.scale <= 0.0F ||
          qp.zero_point < 0 || qp.zero_point > 255) {
        std::ostringstream os;
        os << "degenerate u8 affine params: scale=" << qp.scale
           << " zero_point=" << qp.zero_point;
        issue(Invariant::kQuantParams, oi, static_cast<int>(r), os.str());
      }
    };
    check_value(root(p_.input_), -1);
    const auto finite_consts = [&](int oi, index_t off, index_t count,
                                   const char* what) {
      for (index_t e = 0; e < count; ++e) {
        const float v = u8.consts[static_cast<std::size_t>(off + e)];
        if (!std::isfinite(v)) {
          std::ostringstream os;
          os << what << '[' << e << "] is not finite";
          issue(Invariant::kQuantParams, oi, -1, os.str());
          return;
        }
      }
    };
    const std::size_t out_root = root(p_.output_);
    for (std::size_t i = 0; i < p_.ops_.size(); ++i) {
      const detail::Op& op = p_.ops_[i];
      const detail::QuantOp& qop = u8.ops[i];
      const int oi = static_cast<int>(i);
      const std::size_t rout = root(op.out);
      check_value(root(op.in0), oi);
      if (op.kind == detail::OpKind::kAdd) {
        check_value(root(op.in1), oi);
      }
      if (qop.out_float != (rout == out_root)) {
        issue(Invariant::kLayout, oi, op.out,
              "out_float flag disagrees with the op writing the output");
      }
      if (!qop.out_float) {
        check_value(rout, oi);
        const int want_lo = op.relu ? u8.qparams[rout].zero_point : 0;
        if (qop.out_lo != want_lo) {
          std::ostringstream os;
          os << "out_lo " << qop.out_lo << " != " << want_lo
             << " (ReLU folds into the lower u8 clamp)";
          issue(Invariant::kQuantParams, oi, op.out, qop.out_lo, 0, want_lo,
                0, {}, os.str());
        }
      } else if (qop.out_lo != 0) {
        issue(Invariant::kQuantParams, oi, op.out,
              "dequantizing store must not clamp (out_lo != 0)");
      }
      if (op.kind == detail::OpKind::kConv ||
          op.kind == detail::OpKind::kLinear) {
        const index_t co_round = (op.c_out + nn::kernels::kQuantCo - 1) /
                                 nn::kernels::kQuantCo *
                                 nn::kernels::kQuantCo;
        const auto pool = static_cast<long long>(u8.consts.size());
        if (qop.m_off >= 0 && qop.m_off + co_round <= pool) {
          finite_consts(oi, qop.m_off, co_round, "requantize multiplier");
        }
        if (qop.b_off >= 0 && qop.b_off + co_round <= pool) {
          finite_consts(oi, qop.b_off, co_round, "requantize bias");
        }
      } else if (!std::isfinite(qop.a_mul) || !std::isfinite(qop.b_mul) ||
                 !std::isfinite(qop.c_add)) {
        issue(Invariant::kQuantParams, oi, -1,
              "scalar requantize terms are not finite");
      }
    }
  }

  // ---- packed s8 weight block / requantize-const pool containment --------
  void check_quant_pools(const detail::Program<std::uint8_t>& u8) {
    const index_t wblocks = u8.weights.count();
    const auto cpool = static_cast<long long>(u8.consts.size());
    for (std::size_t i = 0; i < p_.ops_.size(); ++i) {
      const detail::Op& op = p_.ops_[i];
      const detail::QuantOp& qop = u8.ops[i];
      const int oi = static_cast<int>(i);
      if (op.kind != detail::OpKind::kConv &&
          op.kind != detail::OpKind::kLinear) {
        continue;
      }
      nn::kernels::ConvDims wd{};
      wd.c_out = op.c_out;
      if (op.kind == detail::OpKind::kConv) {
        wd.c_in = op.c_in;
        wd.k = op.k;
      } else {
        const std::size_t rv = root(op.in0);
        wd.c_in = quant_groups(p_.values_[rv].channels) * kQuantCiGroup *
                  p_.values_[rv].steps;
        wd.k = 1;
      }
      const index_t wbytes = nn::kernels::packed_weight_bytes_i8(wd);
      if (qop.w_blk < 0 || qop.w_blk >= wblocks) {
        issue(Invariant::kParamPool, oi, -1, qop.w_blk, qop.w_blk + 1, 0,
              wblocks, {},
              "s8 weight block handle falls outside the block table");
      } else if (u8.weights.size(qop.w_blk) != wbytes) {
        std::ostringstream os;
        os << "s8 weight block holds " << u8.weights.size(qop.w_blk)
           << " bytes, op geometry needs " << wbytes;
        issue(Invariant::kParamPool, oi, -1, u8.weights.size(qop.w_blk),
              0, wbytes, 0, {}, os.str());
      }
      const index_t co_round = (op.c_out + nn::kernels::kQuantCo - 1) /
                               nn::kernels::kQuantCo * nn::kernels::kQuantCo;
      const auto consts = [&](index_t off, const char* what) {
        if (off < 0 || static_cast<long long>(off) + co_round > cpool) {
          std::ostringstream os;
          os << what << " spills the requantize-constant pool";
          issue(Invariant::kParamPool, oi, -1, off, off + co_round, 0,
                cpool, {}, os.str());
        }
      };
      consts(qop.m_off, "multiplier vector");
      consts(qop.b_off, "bias vector");
    }
  }

  // ---- quantized binding coherence ---------------------------------------
  void check_quant_bindings(const detail::Program<std::uint8_t>& u8) {
    const Registry& reg = Registry::instance();
    const auto mismatch = [&](int oi, const char* key, const char* what) {
      std::ostringstream os;
      os << what << " differs from what the registry binds for the op's "
         << "signature";
      issue(Invariant::kBinding, oi, -1, 0, 0, 0, 0, key, os.str());
    };
    {
      const auto stage = reg.stage_i8();
      if (u8.stage_fn != stage.fn || u8.stage_meta != stage.meta) {
        mismatch(-1, "stage.i8", "input staging binding");
      }
    }
    for (std::size_t i = 0; i < p_.ops_.size(); ++i) {
      const detail::Op& op = p_.ops_[i];
      const detail::QuantOp& qop = u8.ops[i];
      const int oi = static_cast<int>(i);
      switch (op.kind) {
        case detail::OpKind::kConv: {
          const nn::kernels::ConvSig sig{op.k, op.c_in, op.c_out};
          const auto conv = reg.conv_packed_i8(sig);
          if (qop.bind.conv != conv.fn || qop.bind.meta != conv.meta) {
            mismatch(oi, "conv.packed.i8", "i8 conv binding");
          }
          const auto step = reg.conv_step_i8(sig);
          if (qop.bind.step != step.fn ||
              qop.bind.step_meta != step.meta) {
            mismatch(oi, "conv.step.i8", "i8 streaming step binding");
          }
          break;
        }
        case detail::OpKind::kLinear: {
          const std::size_t rv = root(op.in0);
          const index_t f4 = quant_groups(p_.values_[rv].channels) *
                             kQuantCiGroup * p_.values_[rv].steps;
          const auto lin = reg.conv_packed_i8({1, f4, op.c_out});
          if (qop.bind.conv != lin.fn || qop.bind.meta != lin.meta) {
            mismatch(oi, "conv.packed.i8", "i8 linear binding");
          }
          break;
        }
        case detail::OpKind::kAvgPool:
          if (qop.bind.meta != &Registry::inline_meta()) {
            mismatch(oi, "builtin/inline", "i8 pool meta");
          }
          break;
        case detail::OpKind::kAdd: {
          const auto add = reg.add_i8();
          const nn::kernels::KernelMeta* want_meta =
              qop.out_float ? &Registry::inline_meta() : add.meta;
          if (qop.bind.add != add.fn || qop.bind.meta != want_meta) {
            mismatch(oi, "add.i8", "i8 add binding");
          }
          break;
        }
      }
    }
  }

  const CompiledPlan& p_;
  Report report_;
};

Report verify_plan(const CompiledPlan& plan) {
  return PlanVerifier(plan).run();
}

bool set_verify_enabled(bool enabled) {
  return g_verify_enabled.exchange(enabled, std::memory_order_relaxed);
}

bool verify_enabled() {
  return g_verify_enabled.load(std::memory_order_relaxed);
}

void verify_or_throw(const CompiledPlan& plan, const char* where) {
  if (!verify_enabled()) {
    return;
  }
  const Report report = verify_plan(plan);
  PIT_CHECK(report.ok(), where << ": compiled-plan verification failed — "
                               << report.to_string());
}

}  // namespace pit::runtime::analysis
