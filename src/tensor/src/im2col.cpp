#include "mbd/tensor/im2col.hpp"

#include <algorithm>

#include "mbd/obs/profiler.hpp"
#include "mbd/support/check.hpp"

namespace mbd::tensor {
namespace {

// out_h()/out_w() wrap when the kernel exceeds the padded input and divide
// by zero at stride 0; the row spans below rely on neither happening.
void check_geom(const ConvGeom& g) {
  MBD_CHECK_GT(g.stride, 0u);
  MBD_CHECK_LE(g.kernel_h, g.in_h + 2 * g.pad);
  MBD_CHECK_LE(g.kernel_w, g.in_w + 2 * g.pad);
}

/// The outputs [lo, hi) of one tap: o·stride + tap − pad lies in [0, in)
/// exactly for lo ≤ o < hi, clipped to the `out` outputs.
struct Span {
  std::size_t lo, hi;
};

Span in_image(std::size_t tap, std::size_t pad, std::size_t stride,
              std::size_t in, std::size_t out) {
  // o·stride ≥ pad − tap  and  o·stride < pad + in − tap.
  const std::size_t lo =
      tap >= pad ? 0 : std::min(out, (pad - tap + stride - 1) / stride);
  const std::size_t hi =
      tap >= pad + in ? 0
                      : std::min(out, (pad + in - tap + stride - 1) / stride);
  return {lo, std::max(lo, hi)};
}

// Calls fn(image, col, len) for each run of in-image taps: one tap, one
// output row, the output columns whose input lies inside the image. `image`
// indexes the sample's C×H×W image at the run's first input element, `col`
// the columns matrix at its first entry; the run's entries are adjacent in
// the columns and `stride` apart in the image. Runs come in (c, kh, kw, y)
// order, the element loops' order, and padding taps are skipped.
template <class Fn>
void for_each_row_span(const ConvGeom& g, Fn&& fn) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  std::size_t row = 0;  // (c·kernel_h + kh)·kernel_w + kw
  for (std::size_t c = 0; c < g.in_c; ++c) {
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      const Span ys = in_image(kh, g.pad, g.stride, g.in_h, oh);
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const Span xs = in_image(kw, g.pad, g.stride, g.in_w, ow);
        if (xs.lo == xs.hi) continue;  // the whole tap column is padding
        const std::size_t ix = xs.lo * g.stride + kw - g.pad;
        for (std::size_t y = ys.lo; y < ys.hi; ++y) {
          const std::size_t iy = y * g.stride + kh - g.pad;
          fn((c * g.in_h + iy) * g.in_w + ix, (row * oh + y) * ow + xs.lo,
             xs.hi - xs.lo);
        }
      }
    }
  }
}

}  // namespace

Matrix im2col(const Tensor4& input, std::size_t n, const ConvGeom& g) {
  check_geom(g);
  obs::ScopedSpan span(obs::SpanKind::Im2col, "im2col");
  span.set_args(g.in_c * g.kernel_h * g.kernel_w, g.out_h() * g.out_w());
  MBD_CHECK_EQ(input.c(), g.in_c);
  MBD_CHECK_EQ(input.h(), g.in_h);
  MBD_CHECK_EQ(input.w(), g.in_w);
  MBD_CHECK_LT(n, input.n());
  // Zero-filled, so padding taps need no writes.
  Matrix cols(g.in_c * g.kernel_h * g.kernel_w, g.out_h() * g.out_w());
  const float* image = input.data() + input.offset(n, 0, 0, 0);
  float* out = cols.data();
  for_each_row_span(g, [&](std::size_t i, std::size_t j, std::size_t len) {
    if (g.stride == 1) {
      std::copy(image + i, image + i + len, out + j);
    } else {
      for (std::size_t x = 0; x < len; ++x)
        out[j + x] = image[i + x * g.stride];
    }
  });
  return cols;
}

void col2im_add(const Matrix& cols, Tensor4& grad_input, std::size_t n,
                const ConvGeom& g) {
  check_geom(g);
  obs::ScopedSpan span(obs::SpanKind::Im2col, "col2im_add");
  span.set_args(g.in_c * g.kernel_h * g.kernel_w, g.out_h() * g.out_w());
  MBD_CHECK_EQ(grad_input.c(), g.in_c);
  MBD_CHECK_EQ(grad_input.h(), g.in_h);
  MBD_CHECK_EQ(grad_input.w(), g.in_w);
  MBD_CHECK_LT(n, grad_input.n());
  MBD_CHECK_EQ(cols.rows(), g.in_c * g.kernel_h * g.kernel_w);
  MBD_CHECK_EQ(cols.cols(), g.out_h() * g.out_w());
  // Each image element receives its terms in (kh, kw, y, x) order, and one
  // run never touches an element twice.
  float* image = grad_input.data() + grad_input.offset(n, 0, 0, 0);
  const float* in = cols.data();
  for_each_row_span(g, [&](std::size_t i, std::size_t j, std::size_t len) {
    if (g.stride == 1) {
      for (std::size_t x = 0; x < len; ++x) image[i + x] += in[j + x];
    } else {
      for (std::size_t x = 0; x < len; ++x)
        image[i + x * g.stride] += in[j + x];
    }
  });
}

}  // namespace mbd::tensor
