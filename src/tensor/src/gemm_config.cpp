#include "mbd/tensor/gemm_config.hpp"

#include <cstdlib>

#include "mbd/tensor/detail/gemm_isa.hpp"

namespace mbd::tensor {
namespace {

std::size_t env_or(const char* name, std::size_t fallback) {
  // Reached only from gemm_config()'s magic-static init — no setenv racer.
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe)
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || parsed == 0) return fallback;
  return static_cast<std::size_t>(parsed);
}

GemmConfig make_config() {
  const detail::GemmKernel kernel = detail::gemm_kernel(detail::gemm_isa());
  GemmConfig cfg;
  cfg.mr = kernel.mr;
  cfg.nr = kernel.nr;
  // Defaults: A block (mc×kc ≈ 132 KiB) lives in L2, one B micropanel
  // (kc×nr ≈ 16 KiB with nr=16) stays L1-resident, B block (kc×nc ≈ 2 MiB)
  // is packed once per (jc, pc) and shared by all threads.
  cfg.mc = env_or("MBD_GEMM_MC", 132);
  cfg.kc = env_or("MBD_GEMM_KC", 256);
  cfg.nc = env_or("MBD_GEMM_NC", 2048);
  cfg.kernel = kernel.name;
  return cfg;
}

}  // namespace

const GemmConfig& gemm_config() {
  static const GemmConfig cfg = make_config();
  return cfg;
}

}  // namespace mbd::tensor
