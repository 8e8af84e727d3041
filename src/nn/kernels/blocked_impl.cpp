// Blocked kernel bodies, compiled once per x86-64 micro-architecture level.
//
// This translation unit is built up to three times by CMake with different
// -march flags and -DPIT_BLOCKED_ISA_NS={base,v3,v4}; blocked.cpp picks
// the widest variant the host CPU supports at runtime. Keeping the ISA
// split at the translation-unit level (instead of per-function `target`
// attributes or `target_clones`) guarantees the OpenMP-outlined loop
// bodies are compiled for the same ISA as their enclosing kernel, which
// GCC does not promise for attribute-based multi-versioning.
//
// Training kernels, stride 1 (the TCN hot path, every PIT search step):
// each keeps its accumulators in vector registers across its whole
// reduction and reads a zero-padded per-call copy of its input, so no tile
// needs a bounds check, tiles at the causal edge included.
//   - forward and backward-input run the packed inference kernel's tile
//     shape at native vector width: 4 output rows x 2 vectors of steps
//     (32 on v4) in 8 registers, one tile per (sample, 4-row block) cell,
//     walking only the taps that are not all zero and reading the weights
//     in place. Forward reads x with a zero lead of (k-1)*dilation;
//     backward-input is the same correlation over dy with a zero tail and
//     the weights read transposed, dx[ci,s] += w[co,ci,i] *
//     dy[co, s + i*dilation].
//   - backward-weight is a GEMM over (n, t): each cell owns 4 output
//     channels x 4 taps of one input channel, 16 vector accumulators
//     (lanes indexed by t) that stay live across every sample and step and
//     are reduced across lanes once, at the end. It reads dy with a zero
//     tail up to whole vectors and x with the forward's zero lead.
// Strided convs keep their own loops: forward a 4 x 64 accumulator block
// in L1 with strided gathers, backward-weight one 4-channel reduction per
// (input channel, tap), and backward-input the scalar loop shape under a
// parallel channel-ownership grid (scatter aliasing makes tiling
// pointless).
//
// Thread safety without atomics: each cell of the OpenMP grid owns a
// disjoint slice of the output and runs its reduction in a fixed order,
// so results are bitwise identical at any thread count.
#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "nn/kernels/registry.hpp"

#ifndef PIT_BLOCKED_ISA_NS
#define PIT_BLOCKED_ISA_NS base
#endif

namespace pit::nn::kernels::blocked {
namespace PIT_BLOCKED_ISA_NS {
namespace {

constexpr index_t kCoTile = 4;   // strided paths: output rows per block
constexpr index_t kTTile = 64;   // strided paths: time steps per block

inline bool all_zero4(const float (&v)[kCoTile]) {
  return v[0] == 0.0F && v[1] == 0.0F && v[2] == 0.0F && v[3] == 0.0F;
}

// ---- Vector vocabulary --------------------------------------------------
//
// Passing 64-byte vectors by value trips -Wpsabi on targets narrower than
// AVX-512 (the call ABI for such values differs per ISA level). Every
// vector-typed function here is internal to this TU and inlined, so the
// ABI note is irrelevant; silence it for the rest of the TU — GCC emits
// psABI notes at late codegen, so a push/pop region cannot scope it.
#pragma GCC diagnostic ignored "-Wpsabi"

// The register tiles are written with GCC vector extensions. The packed
// inference kernels use a 16-float vector the compiler lowers to one zmm
// (v4), two ymm (v3) or four xmm (base) per operation; their 4 x 32 output
// tile lives in 8 named vector variables, so the whole c_in x k reduction
// runs register-resident.
using vf = float __attribute__((vector_size(64)));

constexpr index_t kVf = 16;               // floats per vf
constexpr index_t kInferTTile = 2 * kVf;  // time steps per register tile
static_assert(kInferTTile == kPackTimeTile,
              "runtime padding contract must match the register tile");

inline vf load16(const float* p) {
  vf v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void store16(float* p, const vf& v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

inline vf splat(float s) { return vf{} + s; }

/// Writes the first `nt` elements of the 32-wide register tile row;
/// lanes past nt (tail garbage from slack over-reads) are dropped.
inline void store_tile_row(float* yrow, const vf& lo, const vf& hi,
                           index_t nt, bool relu) {
  if (nt == kInferTTile && !relu) {
    store16(yrow, lo);
    store16(yrow + kVf, hi);
    return;
  }
  float tmp[kInferTTile];
  store16(tmp, lo);
  store16(tmp + kVf, hi);
  if (relu) {
    for (index_t t = 0; t < nt; ++t) {
      yrow[t] = tmp[t] > 0.0F ? tmp[t] : 0.0F;
    }
  } else {
    for (index_t t = 0; t < nt; ++t) {
      yrow[t] = tmp[t];
    }
  }
}

// The training tiles use the native vector width, so their accumulators
// fit the register file at every ISA level: the forward / backward-input
// tile is 8 vectors (4 rows x 2 vectors of steps), backward-weight's block
// 16 (zmm on v4, ymm on v3, xmm on base).
#if defined(__AVX512F__)
constexpr index_t kVn = 16;
#elif defined(__AVX__)
constexpr index_t kVn = 8;
#else
constexpr index_t kVn = 4;
#endif
using vn = float __attribute__((vector_size(kVn * sizeof(float))));

constexpr index_t kTrainTTile = 2 * kVn;  // steps per forward-shaped tile
constexpr index_t kTapTile = 4;           // taps per backward-weight cell

inline vn loadn(const float* p) {
  vn v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void storen(float* p, const vn& v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

inline vn splatn(float s) { return vn{} + s; }

/// Adds a register tile row into the first `nt` elements of `row` (the
/// training kernels' accumulate contract).
inline void add_tile_row(float* row, const vn& lo, const vn& hi,
                         index_t nt) {
  if (nt == kTrainTTile) {
    storen(row, loadn(row) + lo);
    storen(row + kVn, loadn(row + kVn) + hi);
    return;
  }
  float tmp[kTrainTTile];
  storen(tmp, lo);
  storen(tmp + kVn, hi);
  for (index_t t = 0; t < nt; ++t) {
    row[t] += tmp[t];
  }
}

/// Sum of the lanes in a fixed pairwise (halving) order.
inline float lane_sum(const vn& v) {
  float lanes[kVn];
  __builtin_memcpy(lanes, &v, sizeof(v));
  for (index_t w = kVn / 2; w > 0; w /= 2) {
    for (index_t l = 0; l < w; ++l) {
      lanes[l] += lanes[l + w];
    }
  }
  return lanes[0];
}

// ---- Training kernels: padded copies and register tiles -----------------

/// Per-call buffer for a padded input copy; pad_rows writes every
/// element, so nothing is value-initialised first.
using PaddedCopy = std::unique_ptr<float[]>;

inline PaddedCopy padded_copy(index_t floats) {
  return std::make_unique_for_overwrite<float[]>(
      static_cast<std::size_t>(floats));
}

/// Copies `rows` rows of `len` floats into rows of `stride` floats that
/// hold `lead` zeros, the row, then zeros. Orphaned worksharing loop: call
/// it inside a parallel region (its implicit barrier ends the copy).
void pad_rows(const float* src, index_t rows, index_t len, index_t lead,
              index_t stride, float* dst) {
#pragma omp for schedule(static)
  for (index_t r = 0; r < rows; ++r) {
    float* row = dst + r * stride;
    std::fill(row, row + lead, 0.0F);
    std::copy(src + r * len, src + (r + 1) * len, row + lead);
    std::fill(row + lead + len, row + stride, 0.0F);
  }
}

/// The taps with at least one nonzero weight, and the offset of each in
/// the tile's input rows (`dir` * tap * dilation). A PIT mask zeroes a
/// pruned tap over every channel pair; leaving it out of the taps a tile
/// walks is the all-zero-tap skip, so a pruned tap costs nothing.
struct LiveTaps {
  std::vector<index_t> tap, off;
};

LiveTaps live_taps(const float* w, const ConvDims& d, index_t dir) {
  LiveTaps live;
  for (index_t i = 0; i < d.k; ++i) {
    for (index_t p = 0; p < d.c_out * d.c_in; ++p) {
      if (w[p * d.k + i] != 0.0F) {
        live.tap.push_back(i);
        live.off.push_back(dir * i * d.dilation);
        break;
      }
    }
  }
  return live;
}

/// One cell of the training forward / backward-input. For the first `nr`
/// (<= kPackCo) rows of `out`, t < t_len, over the live taps j:
///   out[r, t] += bias[r] + sum_{g, j} wr[r][g * g_stride + tap[j]]
///                                     * in[g, t + off[j]],
/// where `in` rows (stride `in_stride`) are zero-padded so every read,
/// including the over-read of a ragged last tile, is in bounds, and the
/// weights are read in place from the four rows `wr` (a row past `nr`
/// repeats a valid one; its sums are dropped). Each 4 x kTrainTTile tile
/// stays in 8 vector registers across the whole (g, j) reduction; a
/// (g, j) step costs two input loads, four weight broadcasts and 8 FMAs.
void correlate_tile(const float* in, index_t in_stride, index_t groups,
                    const float* const (&wr)[kPackCo], index_t g_stride,
                    const LiveTaps& live, const float* bias, float* out,
                    index_t out_stride, index_t nr, index_t t_len) {
  const index_t* taps = live.tap.data();
  const index_t* off = live.off.data();
  const auto nl = static_cast<index_t>(live.tap.size());
  float b[kPackCo];
  for (index_t c = 0; c < kPackCo; ++c) {
    b[c] = (bias != nullptr && c < nr) ? bias[c] : 0.0F;
  }
  for (index_t t0 = 0; t0 < t_len; t0 += kTrainTTile) {
    vn a0l = splatn(b[0]);
    vn a0h = a0l;
    vn a1l = splatn(b[1]);
    vn a1h = a1l;
    vn a2l = splatn(b[2]);
    vn a2h = a2l;
    vn a3l = splatn(b[3]);
    vn a3h = a3l;
    for (index_t g = 0; g < groups; ++g) {
      const float* row = in + g * in_stride + t0;
      const float* w0r = wr[0] + g * g_stride;
      const float* w1r = wr[1] + g * g_stride;
      const float* w2r = wr[2] + g * g_stride;
      const float* w3r = wr[3] + g * g_stride;
      for (index_t j = 0; j < nl; ++j) {
        const float* xs = row + off[j];
        const vn xl = loadn(xs);
        const vn xh = loadn(xs + kVn);
        const vn w0 = splatn(w0r[taps[j]]);
        const vn w1 = splatn(w1r[taps[j]]);
        const vn w2 = splatn(w2r[taps[j]]);
        const vn w3 = splatn(w3r[taps[j]]);
        a0l += w0 * xl;
        a0h += w0 * xh;
        a1l += w1 * xl;
        a1h += w1 * xh;
        a2l += w2 * xl;
        a2h += w2 * xh;
        a3l += w3 * xl;
        a3h += w3 * xh;
      }
    }
    const index_t nt = std::min(kTrainTTile, t_len - t0);
    float* ot = out + t0;
    add_tile_row(ot, a0l, a0h, nt);
    if (nr > 1) {
      add_tile_row(ot + out_stride, a1l, a1h, nt);
    }
    if (nr > 2) {
      add_tile_row(ot + 2 * out_stride, a2l, a2h, nt);
    }
    if (nr > 3) {
      add_tile_row(ot + 3 * out_stride, a3l, a3h, nt);
    }
  }
}

/// One cell of backward-weight: dw[co0 + c, ci, i0 + j] for c < 4,
/// j < NT. `dyp` rows (stride `dy_stride`, a multiple of kVn) end in
/// zeros; `xr` points at x[0, ci, 0] in the lead-padded copy, whose n-th
/// sample starts n * n_stride further. The 4 x NT accumulators stay in
/// registers across every (n, t); a kVn-step chunk costs 4 dy loads, NT
/// x loads at the shifted tap offsets and 4 * NT FMAs.
template <int NT>
void weight_grad_cell(const float* dyp, index_t dy_stride, const float* xr,
                      index_t n_stride, float* dw, const ConvDims& d,
                      index_t co0, index_t ci, index_t i0) {
  const index_t nco = std::min(kPackCo, d.c_out - co0);
  vn acc[kPackCo][NT] = {};
  for (index_t n = 0; n < d.n; ++n) {
    // Out-of-range rows repeat the last valid one; their sums are dropped.
    const float* dyr[kPackCo];
    for (index_t c = 0; c < kPackCo; ++c) {
      dyr[c] = dyp + (n * d.c_out + co0 + std::min(c, nco - 1)) * dy_stride;
    }
    const float* xs = xr + n * n_stride - i0 * d.dilation;
    // dy lanes past t_out are zero, so the x lanes they meet (data or the
    // copy's zero slack) add nothing.
    for (index_t t = 0; t < dy_stride; t += kVn) {
      const vn g[kPackCo] = {loadn(dyr[0] + t), loadn(dyr[1] + t),
                             loadn(dyr[2] + t), loadn(dyr[3] + t)};
#pragma GCC unroll 4
      for (int j = 0; j < NT; ++j) {
        const vn xv = loadn(xs + t - j * d.dilation);
#pragma GCC unroll 4
        for (int c = 0; c < kPackCo; ++c) {
          acc[c][j] += g[c] * xv;
        }
      }
    }
  }
  for (index_t c = 0; c < nco; ++c) {
    float* dwrow = dw + ((co0 + c) * d.c_in + ci) * d.k + i0;
    for (index_t j = 0; j < NT; ++j) {
      dwrow[j] += lane_sum(acc[c][j]);
    }
  }
}

using WeightGradCellFn = void (*)(const float*, index_t, const float*,
                                  index_t, float*, const ConvDims&, index_t,
                                  index_t, index_t);

/// The cell for a block of 1..kTapTile taps (the last block of k taps may
/// be short).
constexpr WeightGradCellFn kWeightGradCells[kTapTile] = {
    &weight_grad_cell<1>, &weight_grad_cell<2>, &weight_grad_cell<3>,
    &weight_grad_cell<4>};

// ---- Strided training paths --------------------------------------------

void conv_forward_strided(const float* x, const float* w, const float* bias,
                          float* y, const ConvDims& d) {
  const index_t co_blocks = (d.c_out + kCoTile - 1) / kCoTile;
#pragma omp parallel for collapse(2) schedule(static)
  for (index_t n = 0; n < d.n; ++n) {
    for (index_t cb = 0; cb < co_blocks; ++cb) {
      const index_t co0 = cb * kCoTile;
      const index_t nco = std::min(kCoTile, d.c_out - co0);
      const float* xn = x + n * d.c_in * d.t_in;
      float* yn = y + n * d.c_out * d.t_out;
      for (index_t t0 = 0; t0 < d.t_out; t0 += kTTile) {
        const index_t nt = std::min(kTTile, d.t_out - t0);
        float acc[kCoTile][kTTile];
        for (index_t c = 0; c < kCoTile; ++c) {
          const float b = (bias != nullptr && c < nco) ? bias[co0 + c] : 0.0F;
          for (index_t tt = 0; tt < kTTile; ++tt) {
            acc[c][tt] = b;
          }
        }
        for (index_t ci = 0; ci < d.c_in; ++ci) {
          const float* xrow = xn + ci * d.t_in;
          for (index_t i = 0; i < d.k; ++i) {
            float wv[kCoTile];
            for (index_t c = 0; c < kCoTile; ++c) {
              wv[c] = (c < nco) ? w[((co0 + c) * d.c_in + ci) * d.k + i]
                                : 0.0F;
            }
            if (all_zero4(wv)) {
              continue;  // pruned tap (PIT masks zero whole taps)
            }
            const index_t back = i * d.dilation;
            const index_t tfirst = (back + d.stride - 1) / d.stride;
            for (index_t t = std::max(t0, tfirst); t < t0 + nt; ++t) {
              const float xv = xrow[t * d.stride - back];
              const index_t tt = t - t0;
              for (index_t c = 0; c < kCoTile; ++c) {
                acc[c][tt] += wv[c] * xv;
              }
            }
          }
        }
        for (index_t c = 0; c < nco; ++c) {
          float* yrow = yn + (co0 + c) * d.t_out;
          for (index_t tt = 0; tt < nt; ++tt) {
            yrow[t0 + tt] += acc[c][tt];
          }
        }
      }
    }
  }
}

// Strided scatter: the scalar loop shape, restricted to the ci rows each
// cell owns (no cross-thread aliasing).
void conv_backward_input_strided(const float* dy, const float* w, float* dx,
                                 const ConvDims& d) {
  const index_t ci_blocks = (d.c_in + kCoTile - 1) / kCoTile;
#pragma omp parallel for collapse(2) schedule(static)
  for (index_t n = 0; n < d.n; ++n) {
    for (index_t cb = 0; cb < ci_blocks; ++cb) {
      const index_t ci0 = cb * kCoTile;
      const index_t nci = std::min(kCoTile, d.c_in - ci0);
      const float* dyn = dy + n * d.c_out * d.t_out;
      float* dxn = dx + n * d.c_in * d.t_in;
      for (index_t c = 0; c < nci; ++c) {
        const index_t ci = ci0 + c;
        float* dxrow = dxn + ci * d.t_in;
        for (index_t co = 0; co < d.c_out; ++co) {
          const float* dyrow = dyn + co * d.t_out;
          const float* wrow = w + (co * d.c_in + ci) * d.k;
          for (index_t i = 0; i < d.k; ++i) {
            const float wv = wrow[i];
            if (wv == 0.0F) {
              continue;
            }
            const index_t back = i * d.dilation;
            const index_t t0 = (back + d.stride - 1) / d.stride;
            for (index_t t = t0; t < d.t_out; ++t) {
              dxrow[t * d.stride - back] += wv * dyrow[t];
            }
          }
        }
      }
    }
  }
}

void conv_backward_weight_strided(const float* dy, const float* x, float* dw,
                                  const ConvDims& d) {
  const index_t co_blocks = (d.c_out + kCoTile - 1) / kCoTile;
#pragma omp parallel for collapse(2) schedule(static)
  for (index_t cb = 0; cb < co_blocks; ++cb) {
    for (index_t ci = 0; ci < d.c_in; ++ci) {
      const index_t co0 = cb * kCoTile;
      const index_t nco = std::min(kCoTile, d.c_out - co0);
      for (index_t i = 0; i < d.k; ++i) {
        const index_t back = i * d.dilation;
        const index_t t0 = (back + d.stride - 1) / d.stride;
        float total[kCoTile] = {};
        for (index_t n = 0; n < d.n; ++n) {
          const float* xrow = x + (n * d.c_in + ci) * d.t_in;
          const float* dyp[kCoTile];
          for (index_t c = 0; c < kCoTile; ++c) {
            // Clamp out-of-range rows to a valid one; their accumulator
            // lanes are discarded below.
            const index_t co = co0 + std::min(c, nco - 1);
            dyp[c] = dy + (n * d.c_out + co) * d.t_out;
          }
          // Per-batch partial rounded separately (close to the scalar
          // reference's accumulation order).
          float acc[kCoTile] = {};
          for (index_t t = t0; t < d.t_out; ++t) {
            const float xv = xrow[t * d.stride - back];
            for (index_t c = 0; c < kCoTile; ++c) {
              acc[c] += dyp[c][t] * xv;
            }
          }
          for (index_t c = 0; c < kCoTile; ++c) {
            total[c] += acc[c];
          }
        }
        for (index_t c = 0; c < nco; ++c) {
          dw[((co0 + c) * d.c_in + ci) * d.k + i] += total[c];
        }
      }
    }
  }
}

}  // namespace

void conv_forward(const float* x, const float* w, const float* bias, float* y,
                  const ConvDims& d) {
  if (d.stride != 1) {
    conv_forward_strided(x, w, bias, y, d);
    return;
  }
  const LiveTaps live = live_taps(w, d, -1);
  // x rows: a zero lead for the causal taps, then slack for the over-read
  // of a ragged last tile.
  const index_t lead = (d.k - 1) * d.dilation;
  const index_t row = lead + std::max(d.t_in, d.t_out) + kTrainTTile;
  const PaddedCopy xp = padded_copy(d.n * d.c_in * row);
  const index_t co_blocks = (d.c_out + kPackCo - 1) / kPackCo;
#pragma omp parallel
  {
    pad_rows(x, d.n * d.c_in, d.t_in, lead, row, xp.get());
#pragma omp for collapse(2) schedule(static)
    for (index_t n = 0; n < d.n; ++n) {
      for (index_t cb = 0; cb < co_blocks; ++cb) {
        const index_t co0 = cb * kPackCo;
        const index_t nco = std::min(kPackCo, d.c_out - co0);
        // Row co of w, read as [ci * k + tap].
        const float* wr[kPackCo];
        for (index_t c = 0; c < kPackCo; ++c) {
          wr[c] = w + (co0 + std::min(c, nco - 1)) * d.c_in * d.k;
        }
        correlate_tile(xp.get() + n * d.c_in * row + lead, row, d.c_in, wr,
                       d.k, live, bias != nullptr ? bias + co0 : nullptr,
                       y + (n * d.c_out + co0) * d.t_out, d.t_out, nco,
                       d.t_out);
      }
    }
  }
}

void conv_backward_input(const float* dy, const float* w, float* dx,
                         const ConvDims& d) {
  if (d.stride != 1) {
    conv_backward_input_strided(dy, w, dx, d);
    return;
  }
  // Gather form: dx[ci,s] += sum_{co,i} w[co,ci,i] * dy[co, s + i*dil],
  // a forward-shaped correlation over transposed weights. dy rows get a
  // zero tail, so reads past t_out add nothing.
  const LiveTaps live = live_taps(w, d, 1);
  const index_t tail = (d.k - 1) * d.dilation + kTrainTTile;
  const index_t row = std::max(d.t_in, d.t_out) + tail;
  const PaddedCopy dyp = padded_copy(d.n * d.c_out * row);
  const index_t ci_blocks = (d.c_in + kPackCo - 1) / kPackCo;
#pragma omp parallel
  {
    pad_rows(dy, d.n * d.c_out, d.t_out, 0, row, dyp.get());
#pragma omp for collapse(2) schedule(static)
    for (index_t n = 0; n < d.n; ++n) {
      for (index_t cb = 0; cb < ci_blocks; ++cb) {
        const index_t ci0 = cb * kPackCo;
        const index_t nci = std::min(kPackCo, d.c_in - ci0);
        // Column ci of w, read as [co * c_in * k + tap].
        const float* wr[kPackCo];
        for (index_t c = 0; c < kPackCo; ++c) {
          wr[c] = w + (ci0 + std::min(c, nci - 1)) * d.k;
        }
        correlate_tile(dyp.get() + n * d.c_out * row, row, d.c_out, wr,
                       d.c_in * d.k, live, nullptr,
                       dx + (n * d.c_in + ci0) * d.t_in, d.t_in, nci,
                       d.t_in);
      }
    }
  }
}

void conv_backward_weight(const float* dy, const float* x, float* dw,
                          const ConvDims& d) {
  if (d.stride != 1) {
    conv_backward_weight_strided(dy, x, dw, d);
    return;
  }
  // dw[co,ci,i] += sum_{n,t} dy[n,co,t] * x[n,ci,t - i*dil] over dy rows
  // with a zero tail up to whole chunks and x rows with a zero lead (and
  // slack for the last chunk's over-read). Dense in the taps: a pruned
  // tap's gradient is the straight-through signal that lets its gamma
  // come back.
  const index_t dy_row = (d.t_out + kVn - 1) / kVn * kVn;
  const index_t lead = (d.k - 1) * d.dilation;
  const index_t x_row = lead + std::max(d.t_in, dy_row);
  const PaddedCopy dyp = padded_copy(d.n * d.c_out * dy_row);
  const PaddedCopy xp = padded_copy(d.n * d.c_in * x_row);
  const index_t co_blocks = (d.c_out + kPackCo - 1) / kPackCo;
  const index_t tap_blocks = (d.k + kTapTile - 1) / kTapTile;
#pragma omp parallel
  {
    pad_rows(dy, d.n * d.c_out, d.t_out, 0, dy_row, dyp.get());
    pad_rows(x, d.n * d.c_in, d.t_in, lead, x_row, xp.get());
#pragma omp for collapse(3) schedule(static)
    for (index_t cb = 0; cb < co_blocks; ++cb) {
      for (index_t ci = 0; ci < d.c_in; ++ci) {
        for (index_t tb = 0; tb < tap_blocks; ++tb) {
          const index_t co0 = cb * kPackCo;
          const index_t i0 = tb * kTapTile;
          const float* xr = xp.get() + ci * x_row + lead;
          const index_t n_stride = d.c_in * x_row;
          const index_t nt = std::min(kTapTile, d.k - i0);
          kWeightGradCells[nt - 1](dyp.get(), dy_row, xr, n_stride, dw, d,
                                   co0, ci, i0);
        }
      }
    }
  }
}

// Tap-count template: KK == 0 is the generic kernel (d.k read at
// runtime); KK > 0 instantiates a variant whose tap loops have a
// compile-time trip count (registered with the kernel registry for
// signatures with k == KK), so the per-tap pointer stepping constant-folds
// and the reduction fully unrolls. The FMA order per (ci, tap) pair is
// identical for every KK — unrolling a loop does not reassociate it — so
// all instantiations agree to rounding on the same input.
template <int KK>
void conv_forward_packed_t(const float* x, const float* wp, const float* bias,
                           float* y, const ConvDims& d, index_t x_stride,
                           index_t y_stride, bool x_padded, bool relu) {
  const index_t kk = KK > 0 ? KK : d.k;
  const index_t co_round = (d.c_out + kPackCo - 1) / kPackCo * kPackCo;
  const index_t co_blocks = co_round / kPackCo;
  const index_t max_back = (kk - 1) * d.dilation;
#pragma omp parallel for collapse(2) schedule(static)
  for (index_t n = 0; n < d.n; ++n) {
    for (index_t cb = 0; cb < co_blocks; ++cb) {
      const index_t co0 = cb * kPackCo;
      const index_t nco = std::min(kPackCo, d.c_out - co0);
      const float* xn = x + n * d.c_in * x_stride;
      float* yn = y + n * d.c_out * y_stride;
      float b[kPackCo];
      for (index_t c = 0; c < kPackCo; ++c) {
        b[c] = (bias != nullptr && c < nco) ? bias[co0 + c] : 0.0F;
      }
      for (index_t t0 = 0; t0 < d.t_out; t0 += kInferTTile) {
        const index_t nt = std::min(kInferTTile, d.t_out - t0);
        // Padded rows make every tile register-resident: reads below
        // t = 0 land in the zeroed lead, tail over-reads land in the
        // slack, and the masked store drops the garbage lanes.
        if (x_padded || (t0 >= max_back && nt == kInferTTile)) {
          // The 4 x 32 output tile stays in 8 vector registers across the
          // whole c_in x k reduction; each tap costs two x loads, one
          // packed-weight group and 8 FMAs.
          vf a0l = splat(b[0]);
          vf a0h = a0l;
          vf a1l = splat(b[1]);
          vf a1h = a1l;
          vf a2l = splat(b[2]);
          vf a2h = a2l;
          vf a3l = splat(b[3]);
          vf a3h = a3l;
          const float* wg = wp + co0;
          for (index_t ci = 0; ci < d.c_in; ++ci) {
            const float* xrow = xn + ci * x_stride + t0;
            for (index_t i = 0; i < kk; ++i) {
              const float* xs = xrow - i * d.dilation;
              const vf xl = load16(xs);
              const vf xh = load16(xs + kVf);
              const vf w0 = splat(wg[0]);
              const vf w1 = splat(wg[1]);
              const vf w2 = splat(wg[2]);
              const vf w3 = splat(wg[3]);
              wg += co_round;
              a0l += w0 * xl;
              a0h += w0 * xh;
              a1l += w1 * xl;
              a1h += w1 * xh;
              a2l += w2 * xl;
              a2h += w2 * xh;
              a3l += w3 * xl;
              a3h += w3 * xh;
            }
          }
          float* yt = yn + co0 * y_stride + t0;
          store_tile_row(yt, a0l, a0h, nt, relu);
          if (nco > 1) {
            store_tile_row(yt + y_stride, a1l, a1h, nt, relu);
          }
          if (nco > 2) {
            store_tile_row(yt + 2 * y_stride, a2l, a2h, nt, relu);
          }
          if (nco > 3) {
            store_tile_row(yt + 3 * y_stride, a3l, a3h, nt, relu);
          }
        } else {
          // Dense rows near the implicit left padding or the ragged
          // tail: per-tap clamped spans over an L1 accumulator block.
          float acc[kPackCo][kInferTTile];
          for (index_t c = 0; c < kPackCo; ++c) {
            for (index_t tt = 0; tt < kInferTTile; ++tt) {
              acc[c][tt] = b[c];
            }
          }
          const float* wg = wp + co0;
          for (index_t ci = 0; ci < d.c_in; ++ci) {
            const float* xrow = xn + ci * x_stride;
            for (index_t i = 0; i < kk; ++i) {
              const float w0 = wg[0];
              const float w1 = wg[1];
              const float w2 = wg[2];
              const float w3 = wg[3];
              wg += co_round;
              const index_t back = i * d.dilation;
              const index_t lo = back > t0 ? back - t0 : 0;
              if (lo >= nt) {
                continue;  // tap reads only the zero padding here
              }
              const float* xs = xrow + t0 - back;
              for (index_t tt = lo; tt < nt; ++tt) {
                const float xv = xs[tt];
                acc[0][tt] += w0 * xv;
                acc[1][tt] += w1 * xv;
                acc[2][tt] += w2 * xv;
                acc[3][tt] += w3 * xv;
              }
            }
          }
          for (index_t c = 0; c < nco; ++c) {
            float* yrow = yn + (co0 + c) * y_stride + t0;
            if (relu) {
              for (index_t tt = 0; tt < nt; ++tt) {
                yrow[tt] = acc[c][tt] > 0.0F ? acc[c][tt] : 0.0F;
              }
            } else {
              for (index_t tt = 0; tt < nt; ++tt) {
                yrow[tt] = acc[c][tt];
              }
            }
          }
        }
      }
    }
  }
}

void conv_forward_packed(const float* x, const float* wp, const float* bias,
                         float* y, const ConvDims& d, index_t x_stride,
                         index_t y_stride, bool x_padded, bool relu) {
  conv_forward_packed_t<0>(x, wp, bias, y, d, x_stride, y_stride, x_padded,
                           relu);
}

#define PIT_DEFINE_PACKED_K(K)                                               \
  void conv_forward_packed_k##K(const float* x, const float* wp,             \
                                const float* bias, float* y,                 \
                                const ConvDims& d, index_t x_stride,         \
                                index_t y_stride, bool x_padded,             \
                                bool relu) {                                 \
    conv_forward_packed_t<K>(x, wp, bias, y, d, x_stride, y_stride,          \
                             x_padded, relu);                                \
  }
PIT_FOREACH_SPEC_K(PIT_DEFINE_PACKED_K)
#undef PIT_DEFINE_PACKED_K

// Streaming single-step conv over a dilated fp32 ring (contract in
// registry.hpp). The body is the loop CompiledPlan::step historically ran
// inline, moved here verbatim so it multi-versions per ISA and the tap
// loop can specialize: accumulation order over (ci, tap) and the
// zero-input skip are preserved exactly.
template <int KK>
void conv_step_t(const float* ring, const float* wp, const float* bias,
                 float* y, index_t c_in, index_t c_out, index_t k,
                 index_t dilation, index_t span, index_t pos, bool relu) {
  const index_t kk = KK > 0 ? KK : k;
  if (bias != nullptr) {
    std::copy(bias, bias + c_out, y);
  } else {
    std::fill(y, y + c_out, 0.0F);
  }
  // Packed weight layout: wp[(ci*k + tap) * co_round + co] — contiguous
  // over output channels, which is the inner loop here too.
  const index_t co_round = (c_out + kPackCo - 1) / kPackCo * kPackCo;
  for (index_t ci = 0; ci < c_in; ++ci) {
    const float* crow = ring + ci * span;
    for (index_t tap = 0; tap < kk; ++tap) {
      const index_t back = tap * dilation;  // < span by construction
      const index_t slot = pos >= back ? pos - back : pos - back + span;
      const float xv = crow[slot];
      if (xv == 0.0F) {
        continue;  // padding region and post-ReLU zeros are common
      }
      const float* wrow = wp + (ci * kk + tap) * co_round;
      for (index_t co = 0; co < c_out; ++co) {
        y[co] += wrow[co] * xv;
      }
    }
  }
  if (relu) {
    for (index_t co = 0; co < c_out; ++co) {
      y[co] = y[co] > 0.0F ? y[co] : 0.0F;
    }
  }
}

void conv_step(const float* ring, const float* wp, const float* bias,
               float* y, index_t c_in, index_t c_out, index_t k,
               index_t dilation, index_t span, index_t pos, bool relu) {
  conv_step_t<0>(ring, wp, bias, y, c_in, c_out, k, dilation, span, pos,
                 relu);
}

#define PIT_DEFINE_STEP_K(K)                                                 \
  void conv_step_k##K(const float* ring, const float* wp, const float* bias, \
                      float* y, index_t c_in, index_t c_out, index_t k,      \
                      index_t dilation, index_t span, index_t pos,           \
                      bool relu) {                                           \
    conv_step_t<K>(ring, wp, bias, y, c_in, c_out, k, dilation, span, pos,   \
                   relu);                                                    \
  }
PIT_FOREACH_SPEC_K(PIT_DEFINE_STEP_K)
#undef PIT_DEFINE_STEP_K

void linear_forward(const float* x, const float* w, const float* bias,
                    float* y, index_t n, index_t f, index_t o, bool relu) {
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < n; ++i) {
    const float* xrow = x + i * f;
    float* yrow = y + i * o;
    for (index_t j = 0; j < o; ++j) {
      const float* wrow = w + j * f;
      // Four independent vector chains hide the FMA latency of the dot
      // product; the ragged tail stays scalar.
      vf acc0 = {};
      vf acc1 = {};
      vf acc2 = {};
      vf acc3 = {};
      index_t p = 0;
      for (; p + 4 * kVf <= f; p += 4 * kVf) {
        acc0 += load16(xrow + p) * load16(wrow + p);
        acc1 += load16(xrow + p + kVf) * load16(wrow + p + kVf);
        acc2 += load16(xrow + p + 2 * kVf) * load16(wrow + p + 2 * kVf);
        acc3 += load16(xrow + p + 3 * kVf) * load16(wrow + p + 3 * kVf);
      }
      for (; p + kVf <= f; p += kVf) {
        acc0 += load16(xrow + p) * load16(wrow + p);
      }
      float sum = bias != nullptr ? bias[j] : 0.0F;
      float lanes[kVf];
      store16(lanes, acc0 + acc1 + acc2 + acc3);
      for (index_t l = 0; l < kVf; ++l) {
        sum += lanes[l];
      }
      for (; p < f; ++p) {
        sum += xrow[p] * wrow[p];
      }
      yrow[j] = relu && sum < 0.0F ? 0.0F : sum;
    }
  }
}

}  // namespace PIT_BLOCKED_ISA_NS
}  // namespace pit::nn::kernels::blocked
