#include "mbd/costmodel/collective_costs.hpp"

#include "mbd/support/check.hpp"

namespace mbd::costmodel {

int ceil_log2(std::size_t p) {
  MBD_CHECK_GT(p, 0u);
  int bits = 0;
  std::size_t v = 1;
  while (v < p) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

CostBreakdown allgather_cost(const MachineModel& m, std::size_t p, double words,
                             LatencyMode mode) {
  if (p <= 1) return {};
  (void)mode;  // Bruck's latency is genuinely ⌈log₂p⌉ in both modes.
  CostBreakdown c;
  c.latency = m.alpha * ceil_log2(p);
  c.bandwidth =
      m.word_time() * words * (static_cast<double>(p - 1) / static_cast<double>(p));
  return c;
}

CostBreakdown allreduce_cost(const MachineModel& m, std::size_t p, double words,
                             LatencyMode mode) {
  if (p <= 1) return {};
  CostBreakdown c;
  c.latency = mode == LatencyMode::PaperLog
                  ? 2.0 * m.alpha * ceil_log2(p)
                  : 2.0 * m.alpha * static_cast<double>(p - 1);
  c.bandwidth = 2.0 * m.word_time() * words *
                (static_cast<double>(p - 1) / static_cast<double>(p));
  return c;
}

CostBreakdown halo_cost(const MachineModel& m, double words) {
  return {m.alpha, m.word_time() * words};
}

CostBreakdown pipeline_fill_drain_cost(const MachineModel& m, std::size_t p,
                                       double boundary_words_mb) {
  if (p <= 1) return {};
  const double hops = 2.0 * static_cast<double>(p - 1);
  return {hops * m.alpha, hops * m.word_time() * boundary_words_mb};
}

}  // namespace mbd::costmodel
