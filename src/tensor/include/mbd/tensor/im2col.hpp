// im2col / col2im lowering so convolution runs as the matrix multiply the
// paper's analysis assumes (footnote 1: convolutions are *viewed* as matmuls
// for the communication analysis; im2col makes that literal).
#pragma once

#include "mbd/tensor/matrix.hpp"
#include "mbd/tensor/tensor4.hpp"

namespace mbd::tensor {

/// Shape parameters of one 2D convolution.
struct ConvGeom {
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t out_c = 0;
  std::size_t kernel_h = 0, kernel_w = 0;
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_h() const { return (in_h + 2 * pad - kernel_h) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - kernel_w) / stride + 1; }
  /// Weight count |W| = (kh·kw·C_in)·C_out (paper Eq. 2).
  std::size_t weight_count() const {
    return kernel_h * kernel_w * in_c * out_c;
  }
};

/// Lower one sample `n` of `input` to a (C_in·kh·kw) × (out_h·out_w) matrix.
/// Out-of-image taps (padding) contribute zeros. Throws mbd::Error unless
/// stride ≥ 1 and each kernel side ≤ its input side + 2·pad, the geometries
/// with at least one output position.
Matrix im2col(const Tensor4& input, std::size_t n, const ConvGeom& g);

/// Scatter-add the columns matrix back into sample `n` of `grad_input`
/// (adjoint of im2col; same geometry requirement).
void col2im_add(const Matrix& cols, Tensor4& grad_input, std::size_t n,
                const ConvGeom& g);

}  // namespace mbd::tensor
