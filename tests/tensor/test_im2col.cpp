#include "mbd/tensor/im2col.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "mbd/support/check.hpp"
#include "mbd/support/rng.hpp"
#include "mbd/tensor/gemm.hpp"

namespace mbd::tensor {
namespace {

/// Direct (definitional) convolution used as the oracle.
Tensor4 conv_direct(const Tensor4& in, const Matrix& w, const ConvGeom& g) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  Tensor4 out(in.n(), g.out_c, oh, ow);
  for (std::size_t n = 0; n < in.n(); ++n)
    for (std::size_t oc = 0; oc < g.out_c; ++oc)
      for (std::size_t y = 0; y < oh; ++y)
        for (std::size_t x = 0; x < ow; ++x) {
          double acc = 0.0;
          for (std::size_t c = 0; c < g.in_c; ++c)
            for (std::size_t kh = 0; kh < g.kernel_h; ++kh)
              for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
                const std::ptrdiff_t iy =
                    static_cast<std::ptrdiff_t>(y * g.stride + kh) -
                    static_cast<std::ptrdiff_t>(g.pad);
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                    static_cast<std::ptrdiff_t>(g.pad);
                if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h) ||
                    ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w))
                  continue;
                const std::size_t wi = (c * g.kernel_h + kh) * g.kernel_w + kw;
                acc += static_cast<double>(
                           w(oc, wi)) *
                       in.at(n, c, static_cast<std::size_t>(iy),
                             static_cast<std::size_t>(ix));
              }
          out.at(n, oc, y, x) = static_cast<float>(acc);
        }
  return out;
}

// Reference im2col and col2im_add: one bounds test per element, padding
// taps read as zero. The library's row-span versions must match them bit
// for bit, including the order of additions into each image element.
Matrix im2col_elementwise(const Tensor4& input, std::size_t n,
                          const ConvGeom& g) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  Matrix cols(g.in_c * g.kernel_h * g.kernel_w, oh * ow);
  for (std::size_t c = 0; c < g.in_c; ++c) {
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
        const std::size_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * g.stride + kh) -
              static_cast<std::ptrdiff_t>(g.pad);
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                static_cast<std::ptrdiff_t>(g.pad);
            float v = 0.0f;
            if (iy >= 0 && iy < static_cast<std::ptrdiff_t>(g.in_h) &&
                ix >= 0 && ix < static_cast<std::ptrdiff_t>(g.in_w)) {
              v = input.at(n, c, static_cast<std::size_t>(iy),
                           static_cast<std::size_t>(ix));
            }
            cols(row, y * ow + x) = v;
          }
        }
      }
    }
  }
  return cols;
}

void col2im_add_elementwise(const Matrix& cols, Tensor4& grad_input,
                            std::size_t n, const ConvGeom& g) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  for (std::size_t c = 0; c < g.in_c; ++c) {
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
        const std::size_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * g.stride + kh) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w)) continue;
            grad_input.at(n, c, static_cast<std::size_t>(iy),
                          static_cast<std::size_t>(ix)) +=
                cols(row, y * ow + x);
          }
        }
      }
    }
  }
}

struct GeomCase {
  ConvGeom g;
  const char* name;
};

class Im2ColSweep : public ::testing::TestWithParam<GeomCase> {};

TEST_P(Im2ColSweep, MatmulEqualsDirectConvolution) {
  const ConvGeom g = GetParam().g;
  Rng rng(3);
  Tensor4 in = Tensor4::random_normal(2, g.in_c, g.in_h, g.in_w, rng, 1.0f);
  Matrix w = Matrix::random_normal(g.out_c, g.in_c * g.kernel_h * g.kernel_w,
                                   rng, 1.0f);
  Tensor4 ref = conv_direct(in, w, g);
  for (std::size_t n = 0; n < in.n(); ++n) {
    const Matrix cols = im2col(in, n, g);
    const Matrix y = matmul(w, cols);
    for (std::size_t oc = 0; oc < g.out_c; ++oc)
      for (std::size_t i = 0; i < g.out_h() * g.out_w(); ++i)
        EXPECT_NEAR(y(oc, i),
                    ref.data()[ref.offset(n, oc, 0, 0) + i], 1e-3f)
            << "sample " << n << " channel " << oc << " pos " << i;
  }
}

TEST_P(Im2ColSweep, RowSpansEqualElementLoopsBitwise) {
  const ConvGeom g = GetParam().g;
  Rng rng(5);
  const Tensor4 in = Tensor4::random_normal(2, g.in_c, g.in_h, g.in_w, rng, 1);
  const Matrix dcols = Matrix::random_normal(
      g.in_c * g.kernel_h * g.kernel_w, g.out_h() * g.out_w(), rng, 1.0f);
  // col2im_add accumulates: start from a nonzero gradient so the order of
  // the additions into each element shows in the bits.
  const Tensor4 grad0 =
      Tensor4::random_normal(2, g.in_c, g.in_h, g.in_w, rng, 1.0f);
  Tensor4 got = grad0, want = grad0;
  for (std::size_t n = 0; n < in.n(); ++n) {
    const Matrix cols = im2col(in, n, g);
    const Matrix ref = im2col_elementwise(in, n, g);
    ASSERT_EQ(cols.rows(), ref.rows());
    ASSERT_EQ(cols.cols(), ref.cols());
    EXPECT_EQ(std::memcmp(cols.data(), ref.data(), cols.size() * sizeof(float)),
              0)
        << "im2col sample " << n;
    col2im_add(dcols, got, n, g);
    col2im_add_elementwise(dcols, want, n, g);
  }
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
      << "col2im_add";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2ColSweep,
    ::testing::Values(
        GeomCase{{1, 5, 5, 1, 3, 3, 1, 0}, "single_channel_3x3"},
        GeomCase{{3, 8, 8, 4, 3, 3, 1, 1}, "same_pad"},
        GeomCase{{2, 9, 7, 3, 3, 3, 2, 1}, "strided"},
        GeomCase{{4, 6, 6, 8, 1, 1, 1, 0}, "one_by_one"},
        GeomCase{{3, 11, 11, 2, 5, 5, 2, 2}, "alexnet_like_5x5"},
        GeomCase{{1, 10, 10, 2, 3, 3, 3, 0}, "stride3"},
        // Tap row and column 1 read only padding: 3·o + 1 − 2 is −1 or 2.
        GeomCase{{2, 2, 2, 2, 3, 3, 3, 2}, "tap_in_padding"}),
    [](const auto& info) { return info.param.name; });

// The bands the domain-parallel conv lowers: pad 0, the slab's width plus
// two halos, and band rows plus two halos, for the 5×5 and 3×3 layers of a
// 16-wide image split into slabs of 4 and 8 rows (and the halo-row bands
// computed once the halo arrives).
INSTANTIATE_TEST_SUITE_P(
    DomainBands, Im2ColSweep,
    ::testing::Values(GeomCase{{3, 6, 20, 16, 5, 5, 1, 0}, "conv5_band2"},
                      GeomCase{{3, 8, 20, 16, 5, 5, 1, 0}, "conv5_band4"},
                      GeomCase{{3, 12, 20, 16, 5, 5, 1, 0}, "conv5_band8"},
                      GeomCase{{16, 3, 18, 32, 3, 3, 1, 0}, "conv3_band1"},
                      GeomCase{{16, 6, 18, 32, 3, 3, 1, 0}, "conv3_band4"},
                      GeomCase{{32, 10, 18, 32, 3, 3, 1, 0}, "conv3_band8"}),
    [](const auto& info) { return info.param.name; });

TEST(Im2Col, AdjointProperty) {
  // <im2col(x), c> == <x, col2im_add(c)> — col2im is the exact adjoint,
  // which is what makes the conv backward pass correct.
  const ConvGeom g{2, 6, 6, 3, 3, 3, 1, 1};
  Rng rng(4);
  Tensor4 x = Tensor4::random_normal(1, g.in_c, g.in_h, g.in_w, rng, 1.0f);
  Matrix c = Matrix::random_normal(g.in_c * g.kernel_h * g.kernel_w,
                                   g.out_h() * g.out_w(), rng, 1.0f);
  const Matrix cols = im2col(x, 0, g);
  double lhs = 0.0;
  for (std::size_t i = 0; i < cols.size(); ++i)
    lhs += static_cast<double>(cols.data()[i]) * c.data()[i];
  Tensor4 xadj(1, g.in_c, g.in_h, g.in_w);
  col2im_add(c, xadj, 0, g);
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    rhs += static_cast<double>(x.data()[i]) * xadj.data()[i];
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::abs(lhs) + 1e-3);
}

TEST(Im2Col, PaddingRegionsAreZero) {
  const ConvGeom g{1, 3, 3, 1, 3, 3, 1, 1};
  Tensor4 x(1, 1, 3, 3);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = 1.0f;
  const Matrix cols = im2col(x, 0, g);
  // Top-left output position: kernel taps above/left of the image are zero.
  EXPECT_FLOAT_EQ(cols(0, 0), 0.0f);  // (kh=0, kw=0) tap at (-1, -1)
  EXPECT_FLOAT_EQ(cols(4, 0), 1.0f);  // centre tap at (0, 0)
}

TEST(Im2Col, RejectsGeometriesWithoutOutputs) {
  // A 3×3 kernel over an unpadded 2×2 image has no output position, where
  // out_h()/out_w() wrap; stride 0 divides by zero.
  const ConvGeom wraps{1, 2, 2, 1, 3, 3, 2, 0};
  const ConvGeom zero_stride{1, 2, 2, 1, 1, 1, 0, 0};
  const Tensor4 x(1, 1, 2, 2);
  Tensor4 grad(1, 1, 2, 2);
  EXPECT_THROW(im2col(x, 0, wraps), mbd::Error);
  EXPECT_THROW(col2im_add(Matrix(9, 1), grad, 0, wraps), mbd::Error);
  EXPECT_THROW(im2col(x, 0, zero_stride), mbd::Error);
  EXPECT_THROW(col2im_add(Matrix(1, 4), grad, 0, zero_stride), mbd::Error);
}

TEST(Im2Col, ConvGeomShapeAlgebra) {
  const ConvGeom g{3, 227, 227, 96, 11, 11, 4, 0};
  EXPECT_EQ(g.out_h(), 55u);
  EXPECT_EQ(g.out_w(), 55u);
  EXPECT_EQ(g.weight_count(), 11u * 11 * 3 * 96);
}

}  // namespace
}  // namespace mbd::tensor
