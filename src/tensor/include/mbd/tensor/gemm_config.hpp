// Blocking configuration of the packed GEMM kernel (see gemm.cpp).
//
// The register microtile (mr × nr) belongs to the microkernel the process
// runs. Each x86 ISA path has its own tile, and the widest path the CPU
// supports is chosen once, at first use (mbd/tensor/detail/gemm_isa.hpp):
// AVX-512F 8×16, else AVX 8×16, else the SSE2 baseline 6×8. All paths give
// bitwise-identical results. The cache blocks (mc, kc, nc) are runtime
// values so they can be tuned per machine without a rebuild:
//
//   mc × kc  — the packed A block a thread streams from L2,
//   kc × nr  — the packed B micropanel that stays L1-resident,
//   kc × nc  — the packed B block shared by all threads.
//
// Environment overrides (read once, at first use):
//   MBD_GEMM_MC, MBD_GEMM_KC, MBD_GEMM_NC — positive integers.
#pragma once

#include <cstddef>

namespace mbd::tensor {

struct GemmConfig {
  std::size_t mr;      ///< microtile rows of the chosen kernel
  std::size_t nr;      ///< microtile cols of the chosen kernel
  std::size_t mc;      ///< rows of the packed A block
  std::size_t kc;      ///< shared inner (depth) block
  std::size_t nc;      ///< cols of the packed B block
  const char* kernel;  ///< the chosen kernel, e.g. "avx512f-8x16"
};

/// The active configuration (kernel chosen and env overrides applied once,
/// on first call).
const GemmConfig& gemm_config();

}  // namespace mbd::tensor
