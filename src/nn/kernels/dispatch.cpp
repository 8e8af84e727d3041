// Autograd entry points and the fp32 weight packer. The training kernels
// come from the registry's binding for the problem's geometry, so autograd
// runs the same ISA level as a compiled plan's strided conv.
#include "nn/kernels/registry.hpp"

namespace pit::nn::kernels {

index_t conv_macs(const ConvDims& d) {
  return d.n * d.c_out * d.c_in * d.k * d.t_out;
}

void conv_forward(const float* x, const float* w, const float* bias, float* y,
                  const ConvDims& d) {
  Registry::instance().conv_train_f32(d).forward(x, w, bias, y, d);
}

void conv_backward_input(const float* dy, const float* w, float* dx,
                         const ConvDims& d) {
  Registry::instance().conv_train_f32(d).backward_input(dy, w, dx, d);
}

void conv_backward_weight(const float* dy, const float* x, float* dw,
                          const ConvDims& d) {
  Registry::instance().conv_train_f32(d).backward_weight(dy, x, dw, d);
}

void conv_backward_bias(const float* dy, float* db, const ConvDims& d) {
  scalar::conv_backward_bias(dy, db, d);
}

index_t packed_weight_floats(const ConvDims& d) {
  const index_t co_round = (d.c_out + kPackCo - 1) / kPackCo * kPackCo;
  return d.c_in * d.k * co_round;
}

void pack_conv_weight(const float* w, const ConvDims& d, float* out) {
  // (co, ci, i) row-major -> [(ci * k + i) * co_round + co], zero-padded
  // in co so a register tile always reads kPackCo valid floats.
  const index_t co_round = (d.c_out + kPackCo - 1) / kPackCo * kPackCo;
  for (index_t ci = 0; ci < d.c_in; ++ci) {
    for (index_t i = 0; i < d.k; ++i) {
      float* group = out + (ci * d.k + i) * co_round;
      for (index_t co = 0; co < co_round; ++co) {
        group[co] =
            co < d.c_out ? w[(co * d.c_in + ci) * d.k + i] : 0.0F;
      }
    }
  }
}

}  // namespace pit::nn::kernels
