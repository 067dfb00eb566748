// The GEMM microkernel paths (see gemm.cpp).
//
// One microkernel body is compiled once per x86 ISA path. gemm_nn/tn/nt run
// the widest path the CPU supports, chosen once per process; every path
// accumulates each entry of C from +0 in k order, rounding each product
// before the add (no FMA), over the same kc blocks, so all paths give
// bitwise-identical results. gemm_on() runs a chosen path, which is how the
// tests prove that equality on every path the host has.
#pragma once

#include <cstddef>

#include "mbd/tensor/matrix.hpp"

namespace mbd::tensor::detail {

enum class GemmIsa { Sse2, Avx, Avx512f };

/// The microkernel of one path.
struct GemmKernel {
  const char* name;  ///< e.g. "avx512f-8x16"
  std::size_t mr;    ///< microtile rows
  std::size_t nr;    ///< microtile cols
};

GemmKernel gemm_kernel(GemmIsa isa);

/// Whether this CPU and OS can run `isa`. Sse2 is the x86-64 baseline; off
/// x86 it is the generic 6×8 body and the only supported path.
bool gemm_isa_supported(GemmIsa isa);

/// The widest supported path, chosen on first call: the one gemm_nn/tn/nt
/// run and gemm_config() reports.
GemmIsa gemm_isa();

enum class GemmOp { NN, TN, NT };

/// gemm_nn, gemm_tn or gemm_nt (per `op`, same shapes and checks) on the
/// `isa` path, which must be supported.
void gemm_on(GemmIsa isa, GemmOp op, const Matrix& a, const Matrix& b,
             Matrix& c, float alpha, float beta);

}  // namespace mbd::tensor::detail
