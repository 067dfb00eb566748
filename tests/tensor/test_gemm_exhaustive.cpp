// Exhaustive shape sweep for the packed GEMM: every m,n,k around the
// register-tile boundaries (mr, nr — see gemm_config.hpp) plus odd and
// coprime sizes, all three variants, and the (alpha, beta) pairs the
// trainers use, checked against a naive reference kept here (independent of
// the library's matmul_reference, which has no alpha/beta). This is the
// test that pins the packing/edge-tail logic; it runs under the ASan/UBSan
// CI matrix like every other test. The GemmIsa tests then prove every
// microkernel path the host supports bitwise-equal to the SSE2 path, over
// the same sweep around that path's tile and over the shapes the benchmark
// workloads issue.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "mbd/support/rng.hpp"
#include "mbd/tensor/detail/gemm_isa.hpp"
#include "mbd/tensor/gemm.hpp"
#include "mbd/tensor/gemm_config.hpp"

namespace mbd::tensor {
namespace {

Matrix random(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  return Matrix::random_normal(r, c, rng, 1.0f);
}

using detail::GemmIsa;
using detail::GemmOp;

// Random operands in storage shape:
//   NN: A m×k, B k×n;  TN: A k×m, B k×n;  NT: A m×k, B n×k.
std::pair<Matrix, Matrix> operands(GemmOp op, std::size_t m, std::size_t n,
                                   std::size_t k, std::uint64_t seed) {
  switch (op) {
    case GemmOp::TN: return {random(k, m, seed), random(k, n, seed + 1)};
    case GemmOp::NT: return {random(m, k, seed), random(n, k, seed + 1)};
    case GemmOp::NN: break;
  }
  return {random(m, k, seed), random(k, n, seed + 1)};
}

// Max |gemm - naive| over the output for one case.
float run_case(GemmOp v, std::size_t m, std::size_t n, std::size_t k,
               float alpha, float beta, std::uint64_t seed) {
  const auto [a, b] = operands(v, m, n, k, seed);
  const Matrix c0 = random(m, n, seed + 2);
  Matrix c = c0;
  switch (v) {
    case GemmOp::NN: gemm_nn(a, b, c, alpha, beta); break;
    case GemmOp::TN: gemm_tn(a, b, c, alpha, beta); break;
    case GemmOp::NT: gemm_nt(a, b, c, alpha, beta); break;
  }
  float worst = 0.0f;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = v == GemmOp::TN ? a(p, i) : a(i, p);
        const float bv = v == GemmOp::NT ? b(j, p) : b(p, j);
        acc += av * bv;
      }
      const float want = alpha * acc + beta * c0(i, j);
      worst = std::max(worst, std::abs(c(i, j) - want));
    }
  }
  return worst;
}

// Sizes straddling every tail boundary: the microtile edges (mr, nr), one
// below/above each, and odd sizes with no relation to any block size.
std::vector<std::size_t> boundary_sizes(std::size_t mr, std::size_t nr) {
  std::vector<std::size_t> s{1,
                             2,
                             mr - 1,
                             mr,
                             mr + 1,
                             nr - 1,
                             nr,
                             nr + 1,
                             2 * nr + 1,
                             31,
                             67};
  std::sort(s.begin(), s.end());
  s.erase(std::unique(s.begin(), s.end()), s.end());
  return s;
}

constexpr std::array<std::pair<float, float>, 3> kAlphaBeta{
    {{1.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, 2.0f}}};

void sweep(GemmOp v, const char* tag) {
  const GemmConfig& cfg = gemm_config();
  const auto sizes = boundary_sizes(cfg.mr, cfg.nr);
  for (std::size_t m : sizes) {
    for (std::size_t n : sizes) {
      for (std::size_t k : sizes) {
        for (std::size_t ab = 0; ab < kAlphaBeta.size(); ++ab) {
          const auto [alpha, beta] = kAlphaBeta[ab];
          const auto seed =
              static_cast<std::uint64_t>(((m * 73 + n) * 73 + k) * 4 + ab);
          const float tol = 1e-4f * static_cast<float>(k + 1);
          ASSERT_LE(run_case(v, m, n, k, alpha, beta, seed), tol)
              << tag << " m=" << m << " n=" << n << " k=" << k
              << " alpha=" << alpha << " beta=" << beta;
        }
      }
    }
  }
}

TEST(GemmExhaustive, NnSweep) { sweep(GemmOp::NN, "nn"); }
TEST(GemmExhaustive, TnSweep) { sweep(GemmOp::TN, "tn"); }
TEST(GemmExhaustive, NtSweep) { sweep(GemmOp::NT, "nt"); }

TEST(GemmExhaustive, AlphaZeroOnlyScalesC) {
  // alpha == 0 must not touch A·B at all (fast path) — only scale C.
  const Matrix a = random(9, 13, 1), b = random(13, 7, 2);
  const Matrix c0 = random(9, 7, 3);
  Matrix c = c0;
  gemm_nn(a, b, c, 0.0f, 0.5f);
  for (std::size_t i = 0; i < 9; ++i)
    for (std::size_t j = 0; j < 7; ++j)
      ASSERT_FLOAT_EQ(c(i, j), 0.5f * c0(i, j));
}

TEST(GemmExhaustive, BetaZeroOverwritesGarbage) {
  // beta == 0 must overwrite, not accumulate into, whatever C holds — huge
  // values would otherwise poison the result.
  const Matrix a = random(18, 19, 4), b = random(19, 17, 5);
  Matrix c = Matrix::filled(18, 17, 1e30f);
  gemm_nn(a, b, c, 1.0f, 0.0f);
  const Matrix ref = matmul_reference(a, b);
  EXPECT_LE(max_abs_diff(c, ref), 1e-3f);
}

TEST(GemmExhaustive, SameMatrixBothOperands) {
  // A aliased as both operands (e.g. Gram matrices): packing must read both
  // before any write lands in C. Square so all variants are shape-legal.
  const Matrix a = random(23, 23, 6);
  Matrix c(23, 23);
  gemm_nn(a, a, c);
  EXPECT_LE(max_abs_diff(c, matmul_reference(a, a)), 1e-3f);
  gemm_nt(a, a, c);
  EXPECT_LE(max_abs_diff(c, matmul_reference(a, a.transposed())), 1e-3f);
  gemm_tn(a, a, c);
  EXPECT_LE(max_abs_diff(c, matmul_reference(a.transposed(), a)), 1e-3f);
}

TEST(GemmExhaustive, ConfigIsSane) {
  const GemmConfig& cfg = gemm_config();
  const detail::GemmKernel kernel = detail::gemm_kernel(detail::gemm_isa());
  EXPECT_EQ(cfg.mr, kernel.mr);
  EXPECT_EQ(cfg.nr, kernel.nr);
  EXPECT_GE(cfg.mc, cfg.mr);
  EXPECT_GE(cfg.nc, cfg.nr);
  EXPECT_GE(cfg.kc, 1u);
  EXPECT_NE(cfg.kernel, nullptr);
  EXPECT_STREQ(cfg.kernel, kernel.name);
}

// --- every ISA path against the SSE2 path, bit for bit ---------------------

// The distinct shapes the benchmark's training and serving workloads issue
// (harvested with MBD_GEMM_LOG_SHAPES=1), as {op, m, n, k}.
struct Shape {
  GemmOp op;
  std::size_t m, n, k;
};

std::vector<Shape> workload_shapes() {
  constexpr GemmOp NN = GemmOp::NN, TN = GemmOp::TN, NT = GemmOp::NT;
  std::vector<Shape> shapes{
      // Conv net 3×16×16 → conv5 16 → conv3 32 → conv3 32 → fc 128 → fc 10
      // at batch 16, on domain, hybrid 2×2, mixed_grid 2×2 and one rank.
      // n = 64 and 128 are the domain bands of 4 and 8 rows.
      {NN, 5, 8, 128}, {NN, 10, 16, 128}, {NN, 16, 64, 75}, {NN, 16, 128, 75},
      {NN, 16, 256, 75}, {NN, 32, 64, 144}, {NN, 32, 64, 288},
      {NN, 32, 128, 144}, {NN, 32, 128, 288}, {NN, 32, 256, 144},
      {NN, 32, 256, 288}, {NN, 64, 8, 8192}, {NN, 128, 16, 8192},
      {NT, 5, 128, 8}, {NT, 10, 128, 16}, {NT, 16, 75, 64}, {NT, 16, 75, 128},
      {NT, 16, 75, 256}, {NT, 32, 144, 64}, {NT, 32, 144, 128},
      {NT, 32, 144, 256}, {NT, 32, 288, 64}, {NT, 32, 288, 128},
      {NT, 32, 288, 256}, {NT, 64, 8192, 8}, {NT, 128, 8192, 16},
      {TN, 75, 64, 16}, {TN, 75, 128, 16}, {TN, 75, 256, 16}, {TN, 128, 8, 5},
      {TN, 128, 16, 10}, {TN, 144, 64, 32}, {TN, 144, 128, 32},
      {TN, 144, 256, 32}, {TN, 288, 64, 32}, {TN, 288, 128, 32},
      {TN, 288, 256, 32}, {TN, 8192, 8, 64}, {TN, 8192, 16, 128},
      // MLP 512-1024-1024-512-10 at batch 32 on model, batch,
      // integrated_15d 2×2, the 4-microbatch pipeline and one rank.
      {NN, 2, 32, 512}, {NN, 3, 32, 512}, {NN, 5, 16, 512}, {NN, 10, 8, 512},
      {NN, 10, 32, 512}, {NN, 128, 32, 1024}, {NN, 256, 16, 1024},
      {NN, 256, 32, 512}, {NN, 256, 32, 1024}, {NN, 512, 8, 1024},
      {NN, 512, 16, 512}, {NN, 512, 16, 1024}, {NN, 512, 32, 1024},
      {NN, 1024, 8, 512}, {NN, 1024, 8, 1024}, {NN, 1024, 32, 512},
      {NN, 1024, 32, 1024}, {NT, 2, 512, 32}, {NT, 3, 512, 32},
      {NT, 5, 512, 16}, {NT, 10, 512, 8}, {NT, 10, 512, 32},
      {NT, 128, 1024, 32}, {NT, 256, 512, 32}, {NT, 256, 1024, 16},
      {NT, 256, 1024, 32}, {NT, 512, 512, 16}, {NT, 512, 1024, 8},
      {NT, 512, 1024, 16}, {NT, 512, 1024, 32}, {NT, 1024, 512, 8},
      {NT, 1024, 512, 32}, {NT, 1024, 1024, 8}, {NT, 1024, 1024, 32},
      {TN, 512, 8, 10}, {TN, 512, 8, 1024}, {TN, 512, 16, 5},
      {TN, 512, 32, 2}, {TN, 512, 32, 3}, {TN, 512, 32, 10},
      {TN, 512, 32, 1024}, {TN, 1024, 8, 512}, {TN, 1024, 8, 1024},
      {TN, 1024, 16, 256}, {TN, 1024, 16, 512}, {TN, 1024, 32, 128},
      {TN, 1024, 32, 256}, {TN, 1024, 32, 512}, {TN, 1024, 32, 1024},
  };
  // Served MLP 256-512-512-10 on integrated_15d 2×2: the reference forward
  // at batch 32 and 512, and every batch size the gateway can coalesce.
  shapes.insert(shapes.end(), {{NN, 512, 32, 256},
                                {NN, 512, 32, 512},
                                {NN, 10, 32, 512},
                                {NN, 512, 512, 256},
                                {NN, 512, 512, 512},
                                {NN, 10, 512, 512}});
  for (std::size_t n = 1; n <= 32; ++n) {
    shapes.push_back({NN, 256, n, 256});
    shapes.push_back({NN, 256, n, 512});
    shapes.push_back({NN, 5, n, 512});
  }
  return shapes;
}

const char* op_name(GemmOp op) {
  return op == GemmOp::TN ? "tn" : op == GemmOp::NT ? "nt" : "nn";
}

// For every (alpha, beta) pair, C from the `isa` path equals C from the
// SSE2 path byte for byte.
void expect_same_bits(GemmIsa isa, const Shape& s, std::uint64_t seed) {
  const auto [a, b] = operands(s.op, s.m, s.n, s.k, seed);
  const Matrix c0 = random(s.m, s.n, seed + 2);
  for (const auto& [alpha, beta] : kAlphaBeta) {
    Matrix want = c0, got = c0;
    detail::gemm_on(GemmIsa::Sse2, s.op, a, b, want, alpha, beta);
    detail::gemm_on(isa, s.op, a, b, got, alpha, beta);
    ASSERT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)),
              0)
        << detail::gemm_kernel(isa).name << " " << op_name(s.op)
        << " m=" << s.m << " n=" << s.n << " k=" << s.k << " alpha=" << alpha
        << " beta=" << beta;
  }
}

class GemmIsaPath : public ::testing::TestWithParam<GemmIsa> {
 protected:
  void SetUp() override {
    if (!detail::gemm_isa_supported(GetParam()))
      GTEST_SKIP() << detail::gemm_kernel(GetParam()).name
                   << " is not supported on this CPU";
  }
};

TEST_P(GemmIsaPath, BoundarySweepMatchesSse2Bitwise) {
  const detail::GemmKernel kernel = detail::gemm_kernel(GetParam());
  const auto sizes = boundary_sizes(kernel.mr, kernel.nr);
  std::uint64_t seed = 1;
  for (const GemmOp op : {GemmOp::NN, GemmOp::TN, GemmOp::NT})
    for (std::size_t m : sizes)
      for (std::size_t n : sizes)
        for (std::size_t k : sizes)
          expect_same_bits(GetParam(), {op, m, n, k}, seed += 3);
}

TEST_P(GemmIsaPath, WorkloadShapesMatchSse2Bitwise) {
  std::uint64_t seed = 1;
  for (const Shape& s : workload_shapes())
    expect_same_bits(GetParam(), s, seed += 3);
}

TEST(GemmIsa, WidestSupportedPathIsChosen) {
  const GemmIsa chosen = detail::gemm_isa();
  EXPECT_TRUE(detail::gemm_isa_supported(chosen));
  EXPECT_TRUE(detail::gemm_isa_supported(GemmIsa::Sse2));
  for (const GemmIsa wider : {GemmIsa::Avx, GemmIsa::Avx512f})
    if (detail::gemm_isa_supported(wider))
      EXPECT_GE(static_cast<int>(chosen), static_cast<int>(wider));
}

INSTANTIATE_TEST_SUITE_P(Paths, GemmIsaPath,
                         ::testing::Values(GemmIsa::Avx, GemmIsa::Avx512f),
                         [](const auto& info) {
                           return std::string(
                               info.param == GemmIsa::Avx ? "Avx" : "Avx512f");
                         });

}  // namespace
}  // namespace mbd::tensor
