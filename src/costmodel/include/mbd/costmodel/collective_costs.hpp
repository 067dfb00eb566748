// α–β costs of the collectives, exactly as the paper charges them.
//
// The paper's formulas (following Thakur et al. for Bruck all-gather and the
// ring all-reduce) write every collective's latency as α⌈log₂ P⌉. For the
// ring all-reduce the *algorithm's* latency is really 2(P−1)α; the paper's
// "factor of 2 is merely due to the all-reduce algorithm" keeps the log term.
// LatencyMode::PaperLog reproduces the paper's accounting (default for all
// figure benches); LatencyMode::AlgorithmExact charges the true ring latency
// and is exposed as an ablation.
#pragma once

#include <cstddef>

#include "mbd/costmodel/machine.hpp"

namespace mbd::costmodel {

enum class LatencyMode {
  PaperLog,        ///< α⌈log₂P⌉ everywhere (paper Eqs. 3, 4, 7, 8, 9)
  AlgorithmExact,  ///< ring all-reduce / all-gather pay (P−1)α per phase
};

/// Latency + bandwidth components of one communication phase, in seconds.
struct CostBreakdown {
  double latency = 0.0;
  double bandwidth = 0.0;

  double total() const { return latency + bandwidth; }
  CostBreakdown& operator+=(const CostBreakdown& o) {
    latency += o.latency;
    bandwidth += o.bandwidth;
    return *this;
  }
  friend CostBreakdown operator+(CostBreakdown a, const CostBreakdown& b) {
    a += b;
    return a;
  }
  CostBreakdown scaled(double f) const { return {latency * f, bandwidth * f}; }
};

/// ⌈log₂ p⌉ with ⌈log₂ 1⌉ = 0.
int ceil_log2(std::size_t p);

/// All-gather of `words` total result words over `p` processes
/// (Bruck: α⌈log p⌉ + β·(p−1)/p·words).
CostBreakdown allgather_cost(const MachineModel& m, std::size_t p, double words,
                             LatencyMode mode = LatencyMode::PaperLog);

/// Ring all-reduce of `words` words over `p` processes
/// (paper: 2(α⌈log p⌉ + β·(p−1)/p·words)).
CostBreakdown allreduce_cost(const MachineModel& m, std::size_t p, double words,
                             LatencyMode mode = LatencyMode::PaperLog);

/// One halo exchange of `words` words with a neighbour (α + β·words).
CostBreakdown halo_cost(const MachineModel& m, double words);

/// Fill + drain overhead of a P-stage 1F1B pipeline, per iteration: the
/// (P−1) warmup forward transfers and (P−1) drain backward transfers sit on
/// the critical path (steady-state transfers hide behind the other ranks'
/// microbatch compute), each a point-to-point message of one microbatch's
/// boundary activations — 2(P−1)(α + β·boundary_words_mb).
CostBreakdown pipeline_fill_drain_cost(const MachineModel& m, std::size_t p,
                                       double boundary_words_mb);

}  // namespace mbd::costmodel
