// Differentiable tensor operations.
//
// All functions are pure (they allocate a fresh output) and record autograd
// nodes when grad mode is on and any input tracks gradients. Shapes must
// match exactly unless a function documents otherwise; violations throw
// pit::Error.
#pragma once

#include "tensor/tensor.hpp"

namespace pit {

// ---- Elementwise binary (same shape) ------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

// ---- Scalar broadcast ----------------------------------------------------
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

// ---- Unary ---------------------------------------------------------------
Tensor neg(const Tensor& a);
/// ReLU of one value: x where x > 0, +0 for every other number (-0
/// included), and NaN stays NaN, so an element an op left unwritten (NaN
/// in Debug and ASan builds) still reaches the loss.
inline float relu_value(float x) { return x > 0.0F || x != x ? x : 0.0F; }
/// Element-wise relu_value; its gradient is dy where x > 0, else 0.
Tensor relu(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor tanh_op(const Tensor& a);
Tensor exp_op(const Tensor& a);
/// Natural log; caller must guarantee positive inputs.
Tensor log_op(const Tensor& a);
Tensor abs_op(const Tensor& a);
Tensor square(const Tensor& a);
Tensor sqrt_op(const Tensor& a);
/// Clamp to [lo, hi]; gradient passes only where the input was in range.
Tensor clamp(const Tensor& a, float lo, float hi);

/// Heaviside step at `threshold` (>= maps to 1) with a straight-through
/// estimator in backward: the gradient of the identity (BinaryConnect).
Tensor binarize(const Tensor& a, float threshold);

// ---- Reductions ------------------------------------------------------------
/// Sum of all elements -> scalar.
Tensor sum(const Tensor& a);
/// Mean of all elements -> scalar.
Tensor mean(const Tensor& a);

// ---- Linear algebra --------------------------------------------------------
/// (m x k) @ (k x n) -> (m x n).
Tensor matmul(const Tensor& a, const Tensor& b);
/// 2-D transpose.
Tensor transpose(const Tensor& a);

// ---- Structured ops used by the PIT mask construction ----------------------
/// Column-wise product of a (R x C) matrix -> vector of length C.
Tensor prod_dim0(const Tensor& a);
/// Replicate a length-R vector into the columns of an (R x cols) matrix.
Tensor replicate_cols(const Tensor& v, index_t cols);
/// Prepend a constant 1 to a vector: (n) -> (n+1). Gradient drops the head.
Tensor prepend_one(const Tensor& v);

}  // namespace pit
