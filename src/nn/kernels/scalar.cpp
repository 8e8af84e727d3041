// Reference backend: the original single-threaded triple-loop kernels.
//
// Deliberately untiled and unparallelised — this is the ground truth the
// blocked backend's parity tests compare against, and the fallback for
// problems too small to amortise tiling overhead.
#include "nn/kernels/kernels.hpp"

namespace pit::nn::kernels::scalar {

void conv_forward(const float* x, const float* w, const float* bias, float* y,
                  const ConvDims& d) {
  for (index_t n = 0; n < d.n; ++n) {
    const float* xn = x + n * d.c_in * d.t_in;
    float* yn = y + n * d.c_out * d.t_out;
    for (index_t co = 0; co < d.c_out; ++co) {
      float* yrow = yn + co * d.t_out;
      if (bias != nullptr) {
        const float b = bias[co];
        for (index_t t = 0; t < d.t_out; ++t) {
          yrow[t] += b;
        }
      }
      for (index_t ci = 0; ci < d.c_in; ++ci) {
        const float* xrow = xn + ci * d.t_in;
        const float* wrow = w + (co * d.c_in + ci) * d.k;
        for (index_t i = 0; i < d.k; ++i) {
          const float wv = wrow[i];
          if (wv == 0.0F) {
            continue;  // masked taps cost nothing
          }
          const index_t back = i * d.dilation;
          // first t with t*stride - back >= 0:
          const index_t t0 = (back + d.stride - 1) / d.stride;
          if (d.stride == 1) {
            const float* xs = xrow - back;
            for (index_t t = t0; t < d.t_out; ++t) {
              yrow[t] += wv * xs[t];
            }
          } else {
            for (index_t t = t0; t < d.t_out; ++t) {
              yrow[t] += wv * xrow[t * d.stride - back];
            }
          }
        }
      }
    }
  }
}

void conv_backward_input(const float* dy, const float* w, float* dx,
                         const ConvDims& d) {
  for (index_t n = 0; n < d.n; ++n) {
    const float* dyn = dy + n * d.c_out * d.t_out;
    float* dxn = dx + n * d.c_in * d.t_in;
    for (index_t co = 0; co < d.c_out; ++co) {
      const float* dyrow = dyn + co * d.t_out;
      for (index_t ci = 0; ci < d.c_in; ++ci) {
        float* dxrow = dxn + ci * d.t_in;
        const float* wrow = w + (co * d.c_in + ci) * d.k;
        for (index_t i = 0; i < d.k; ++i) {
          const float wv = wrow[i];
          if (wv == 0.0F) {
            continue;
          }
          const index_t back = i * d.dilation;
          const index_t t0 = (back + d.stride - 1) / d.stride;
          if (d.stride == 1) {
            float* dxs = dxrow - back;
            for (index_t t = t0; t < d.t_out; ++t) {
              dxs[t] += wv * dyrow[t];
            }
          } else {
            for (index_t t = t0; t < d.t_out; ++t) {
              dxrow[t * d.stride - back] += wv * dyrow[t];
            }
          }
        }
      }
    }
  }
}

void conv_backward_weight(const float* dy, const float* x, float* dw,
                          const ConvDims& d) {
  for (index_t n = 0; n < d.n; ++n) {
    const float* xn = x + n * d.c_in * d.t_in;
    const float* dyn = dy + n * d.c_out * d.t_out;
    for (index_t co = 0; co < d.c_out; ++co) {
      const float* dyrow = dyn + co * d.t_out;
      for (index_t ci = 0; ci < d.c_in; ++ci) {
        const float* xrow = xn + ci * d.t_in;
        float* dwrow = dw + (co * d.c_in + ci) * d.k;
        for (index_t i = 0; i < d.k; ++i) {
          const index_t back = i * d.dilation;
          const index_t t0 = (back + d.stride - 1) / d.stride;
          float acc = 0.0F;
          if (d.stride == 1) {
            const float* xs = xrow - back;
            for (index_t t = t0; t < d.t_out; ++t) {
              acc += dyrow[t] * xs[t];
            }
          } else {
            for (index_t t = t0; t < d.t_out; ++t) {
              acc += dyrow[t] * xrow[t * d.stride - back];
            }
          }
          dwrow[i] += acc;
        }
      }
    }
  }
}

}  // namespace pit::nn::kernels::scalar
