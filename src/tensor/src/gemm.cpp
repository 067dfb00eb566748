#include "mbd/tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <tuple>

#include "mbd/obs/metrics.hpp"
#include "mbd/obs/profiler.hpp"
#include "mbd/support/check.hpp"
#include "mbd/tensor/detail/gemm_isa.hpp"
#include "mbd/tensor/detail/gemm_packing.hpp"
#include "mbd/tensor/gemm_config.hpp"

namespace mbd::tensor {
namespace {

using detail::AlignedBuffer;
using detail::GemmIsa;
using detail::GemmKernel;
using detail::GemmOp;
using detail::round_up;

std::atomic<bool> g_shape_metrics{false};
std::atomic<bool> g_dry_run{false};

// One-shot shape logger: every distinct (variant, m, n, k) a process issues
// is recorded once as an obs::Metrics counter (surfacing in bench --json
// records via set_gemm_shape_metrics) and, with MBD_GEMM_LOG_SHAPES set,
// printed once to stderr so any trainer/example run can harvest the shape
// list bench_gemm sweeps. Disabled (the common case) it costs one relaxed
// load per call.
void log_shape_once(const char* variant, std::size_t m, std::size_t n,
                    std::size_t k) {
  // Magic-static init: getenv runs once, before any concurrent caller races.
  static const bool env_enabled =
      std::getenv("MBD_GEMM_LOG_SHAPES") != nullptr;  // NOLINT(concurrency-mt-unsafe)
  const bool metrics = g_shape_metrics.load(std::memory_order_relaxed);
  if (!env_enabled && !metrics) return;
  static std::mutex mu;
  static std::set<std::tuple<std::string, std::size_t, std::size_t, std::size_t>>
      seen;
  const std::lock_guard<std::mutex> lock(mu);
  if (seen.emplace(variant, m, n, k).second) {
    if (metrics) {
      char name[96];
      std::snprintf(name, sizeof name, "gemm.shape.%s m%zu n%zu k%zu", variant,
                    m, n, k);
      obs::Metrics::instance().counter_add(name);
    }
    if (env_enabled) {
      std::fprintf(stderr, "[mbd-gemm-shape] %s m=%zu n=%zu k=%zu\n", variant,
                   m, n, k);
    }
  }
}

void scale_c(float* c, std::size_t m, std::size_t n, float beta) {
  if (beta == 1.0f) return;
  if (beta == 0.0f) {
    std::fill(c, c + m * n, 0.0f);
  } else {
    for (std::size_t i = 0; i < m * n; ++i) c[i] *= beta;
  }
}

// The microkernel body, written once: rank-1 updates over the shared
// dimension into the MR×NR tile `acc`, in k order, each product rounded
// before its add (gemm.cpp is built with -ffp-contract=off, so no FMA).
// Both trip counts are compile-time constants, so the tile lives in SIMD
// registers: twelve xmm for SSE2's 6×8 and eight zmm for AVX-512F's 8×16.
// AVX's 8×16 needs sixteen ymm plus operands, so four accumulators spill to
// L1. Timed with the AVX path forced on an AVX-512 Xeon, it still ran as
// fast as a 6×16 tile that fits in twelve ymm (both 0.56× SSE2's time over
// the workload shapes in test_gemm_exhaustive.cpp).
template <std::size_t MR, std::size_t NR>
[[gnu::always_inline]] inline void micro_tile(std::size_t kb,
                                              const float* __restrict__ ap,
                                              const float* __restrict__ bp,
                                              float* __restrict__ acc) {
  for (std::size_t p = 0; p < kb; ++p) {
    const float* __restrict__ a = ap + p * MR;
    const float* __restrict__ b = bp + p * NR;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < MR; ++i) {
#pragma omp simd
      for (std::size_t j = 0; j < NR; ++j) acc[i * NR + j] += a[i] * b[j];
    }
  }
}

// One struct per ISA path: its tile and a thin function that instantiates
// micro_tile for that ISA. Nothing else is compiled per ISA — packing,
// merge_tile and the blocked driver are baseline code shared by all paths.
// Off x86 the wider paths compile as generic code and are never supported,
// so the 6×8 body is the only one that runs.
#if defined(__x86_64__) || defined(__i386__)
#define MBD_GEMM_X86 1
#define MBD_GEMM_TARGET(isa) __attribute__((target(isa)))
#else
#define MBD_GEMM_X86 0
#define MBD_GEMM_TARGET(isa)
#endif

struct Sse2 {
  static constexpr GemmKernel kernel{"sse2-6x8", 6, 8};
  static void micro(std::size_t kb, const float* ap, const float* bp,
                    float* acc) {
    micro_tile<kernel.mr, kernel.nr>(kb, ap, bp, acc);
  }
};

struct Avx {
  static constexpr GemmKernel kernel{"avx-8x16", 8, 16};
  MBD_GEMM_TARGET("avx")
  static void micro(std::size_t kb, const float* ap, const float* bp,
                    float* acc) {
    micro_tile<kernel.mr, kernel.nr>(kb, ap, bp, acc);
  }
};

struct Avx512f {
  static constexpr GemmKernel kernel{"avx512f-8x16", 8, 16};
  MBD_GEMM_TARGET("avx512f")
  static void micro(std::size_t kb, const float* ap, const float* bp,
                    float* acc) {
    micro_tile<kernel.mr, kernel.nr>(kb, ap, bp, acc);
  }
};

// Merge a finished microtile (row stride NR) into C (alpha is already folded
// into acc via the A pack; beta is applied exactly once, on the first
// k-block).
template <std::size_t NR>
void merge_tile(const float* __restrict__ acc, float* __restrict__ c,
                std::size_t ldc, std::size_t mr_eff, std::size_t nr_eff,
                float beta) {
  for (std::size_t i = 0; i < mr_eff; ++i) {
    const float* arow = acc + i * NR;
    float* crow = c + i * ldc;
    if (beta == 0.0f) {
#pragma omp simd
      for (std::size_t j = 0; j < nr_eff; ++j) crow[j] = arow[j];
    } else if (beta == 1.0f) {
#pragma omp simd
      for (std::size_t j = 0; j < nr_eff; ++j) crow[j] += arow[j];
    } else {
#pragma omp simd
      for (std::size_t j = 0; j < nr_eff; ++j)
        crow[j] = beta * crow[j] + arow[j];
    }
  }
}

// C = alpha·op(A)·op(B) + beta·C: op(A) is m×k, op(B) is k×n, C is m×n,
// each matrix row-major with its own row stride.
struct Operands {
  const float* a;
  std::size_t lda;
  const float* b;
  std::size_t ldb;
  float* c;
  std::size_t ldc;
  std::size_t m, n, k;
  float alpha, beta;
};

// Shared packed driver. `TransA` means A is stored k×m, `TransB` means B is
// stored n×k; the packing routines absorb the transposes so all three
// variants run the same unit-stride microkernel.
template <class Path, bool TransA, bool TransB>
void gemm_packed(const Operands& o) {
  constexpr std::size_t MR = Path::kernel.mr, NR = Path::kernel.nr;
  const std::size_t m = o.m, n = o.n, k = o.k;
  if (m == 0 || n == 0) return;
  if (g_dry_run.load(std::memory_order_relaxed)) {
    // Compute elision (static schedule analyzer): zero C without reading
    // A/B. Downstream layers see exact shapes and exact message sizes —
    // payloads flow zero-filled — while the FMA cost disappears.
    scale_c(o.c, m, n, 0.0f);
    return;
  }
  if (k == 0 || o.alpha == 0.0f) {
    scale_c(o.c, m, n, o.beta);
    return;
  }
  const GemmConfig& cfg = gemm_config();
  AlignedBuffer bbuf;
  for (std::size_t jc = 0; jc < n; jc += cfg.nc) {
    const std::size_t nb = std::min(cfg.nc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += cfg.kc) {
      const std::size_t kb = std::min(cfg.kc, k - pc);
      const float beta_eff = pc == 0 ? o.beta : 1.0f;
      float* bp = bbuf.ensure(round_up(nb, NR) * kb);
      {
        // Calling-thread site only: the per-thread pack_a inside the omp
        // region below is deliberately uninstrumented (worker registration
        // order is nondeterministic and the span cost is per macro-tile).
        obs::ScopedSpan pack_span(obs::SpanKind::Pack, "pack_b");
        pack_span.set_args(kb, nb);
        detail::pack_b<NR, TransB>(o.b, o.ldb, pc, kb, jc, nb, bp);
      }
      // Threads split the macro-tile (row-block) loop; each packs its own A
      // block into a thread-local buffer and streams the shared B block. A
      // single macro-tile (m <= mc) runs on the calling thread: a team would
      // have nothing to split, and P rank threads each opening one would
      // oversubscribe the cores.
#pragma omp parallel for schedule(static) if (m > cfg.mc)
      for (std::size_t ic = 0; ic < m; ic += cfg.mc) {
        const std::size_t mb = std::min(cfg.mc, m - ic);
        static thread_local AlignedBuffer abuf;
        float* ap = abuf.ensure(round_up(mb, MR) * kb);
        detail::pack_a<MR, TransA>(o.a, o.lda, ic, mb, pc, kb, o.alpha, ap);
        for (std::size_t jr = 0; jr < nb; jr += NR) {
          const std::size_t nr_eff = std::min(NR, nb - jr);
          const float* bpanel = bp + (jr / NR) * (kb * NR);
          for (std::size_t ir = 0; ir < mb; ir += MR) {
            const std::size_t mr_eff = std::min(MR, mb - ir);
            const float* apanel = ap + (ir / MR) * (kb * MR);
            alignas(detail::kGemmAlign) float acc[MR * NR] = {};
            Path::micro(kb, apanel, bpanel, acc);
            merge_tile<NR>(acc, o.c + (ic + ir) * o.ldc + jc + jr, o.ldc,
                           mr_eff, nr_eff, beta_eff);
          }
        }
      }
    }
  }
}

template <class Path>
void gemm_path(GemmOp op, const Operands& o) {
  switch (op) {
    case GemmOp::NN: return gemm_packed<Path, false, false>(o);
    case GemmOp::TN: return gemm_packed<Path, true, false>(o);
    case GemmOp::NT: return gemm_packed<Path, false, true>(o);
  }
}

}  // namespace

namespace detail {

GemmKernel gemm_kernel(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::Avx512f: return Avx512f::kernel;
    case GemmIsa::Avx: return Avx::kernel;
    case GemmIsa::Sse2: break;
  }
  return Sse2::kernel;
}

bool gemm_isa_supported(GemmIsa isa) {
#if MBD_GEMM_X86
  __builtin_cpu_init();
  switch (isa) {
    case GemmIsa::Avx512f: return __builtin_cpu_supports("avx512f");
    case GemmIsa::Avx: return __builtin_cpu_supports("avx");
    case GemmIsa::Sse2: break;
  }
  return true;
#else
  return isa == GemmIsa::Sse2;
#endif
}

GemmIsa gemm_isa() {
  static const GemmIsa isa = [] {
    for (const GemmIsa widest : {GemmIsa::Avx512f, GemmIsa::Avx})
      if (gemm_isa_supported(widest)) return widest;
    return GemmIsa::Sse2;
  }();
  return isa;
}

void gemm_on(GemmIsa isa, GemmOp op, const Matrix& a, const Matrix& b,
             Matrix& c, float alpha, float beta) {
  // Storage shapes: NN A m×k, B k×n; TN A k×m, B k×n; NT A m×k, B n×k.
  const bool ta = op == GemmOp::TN, tb = op == GemmOp::NT;
  const std::size_t m = ta ? a.cols() : a.rows();
  const std::size_t k = ta ? a.rows() : a.cols();
  const std::size_t n = tb ? b.rows() : b.cols();
  MBD_CHECK_EQ(tb ? b.cols() : b.rows(), k);
  MBD_CHECK_EQ(c.rows(), m);
  MBD_CHECK_EQ(c.cols(), n);
  MBD_CHECK(gemm_isa_supported(isa));
  const char* variant = ta ? "tn" : tb ? "nt" : "nn";
  log_shape_once(variant, m, n, k);
  obs::ScopedSpan span(obs::SpanKind::Gemm, variant);
  span.set_args(m * n, k);
  const Operands o{a.data(), a.cols(), b.data(), b.cols(), c.data(), n,
                   m, n, k, alpha, beta};
  switch (isa) {
    case GemmIsa::Avx512f: return gemm_path<Avx512f>(op, o);
    case GemmIsa::Avx: return gemm_path<Avx>(op, o);
    case GemmIsa::Sse2: return gemm_path<Sse2>(op, o);
  }
}

}  // namespace detail

void gemm_nn(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta) {
  detail::gemm_on(detail::gemm_isa(), GemmOp::NN, a, b, c, alpha, beta);
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta) {
  detail::gemm_on(detail::gemm_isa(), GemmOp::TN, a, b, c, alpha, beta);
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta) {
  detail::gemm_on(detail::gemm_isa(), GemmOp::NT, a, b, c, alpha, beta);
}

void set_gemm_shape_metrics(bool on) {
  g_shape_metrics.store(on, std::memory_order_relaxed);
}

void set_gemm_dry_run(bool on) {
  g_dry_run.store(on, std::memory_order_relaxed);
}

bool gemm_dry_run() { return g_dry_run.load(std::memory_order_relaxed); }

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  gemm_nn(a, b, c);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  gemm_tn(a, b, c);
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  gemm_nt(a, b, c);
  return c;
}

Matrix matmul_reference(const Matrix& a, const Matrix& b) {
  MBD_CHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < a.cols(); ++kk)
        acc += a(i, kk) * b(kk, j);
      c(i, j) = acc;
    }
  return c;
}

}  // namespace mbd::tensor
