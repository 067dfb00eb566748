// Per-iteration cost models of the parallelization strategies.
//
// Implements the paper's communication complexities exactly:
//   Eq. 3 — pure model parallelism
//   Eq. 4 — pure batch parallelism
//   Eq. 5 — model-vs-batch communication-volume crossover
//   Eq. 6 — batch→model redistribution
//   Eq. 7 — pure domain parallelism
//   Eq. 8 — integrated model+batch (1.5D, Pr × Pc grid)
//   Eq. 9 — full model+batch+domain integration (per-layer LM/LD lists)
// plus the empirical compute-time term (Fig. 4 curve) and the
// communication/backprop overlap model of Fig. 8.
//
// All costs are *per SGD iteration*; multiply by ⌈N/B⌉ for an epoch
// (epoch_seconds helper).
#pragma once

#include <string>
#include <vector>

#include "mbd/costmodel/collective_costs.hpp"
#include "mbd/costmodel/volumes.hpp"
#include "mbd/nn/layer_spec.hpp"

namespace mbd::costmodel {

/// Process-grid policy for the Eq. 8 simulations.
enum class GridMode {
  Uniform,            ///< same Pr × Pc grid for every layer (Fig. 6)
  BatchParallelConv,  ///< Pr=1 for conv layers, Pr × Pc for FC only (Fig. 7)
};

/// Simulation knobs.
struct SimOptions {
  LatencyMode latency = LatencyMode::PaperLog;
};

/// Communication cost of one layer, split by phase.
struct LayerCost {
  std::string name;
  CostBreakdown ag_forward;  ///< all-gather of Y over the Pr groups
  CostBreakdown ar_dx;       ///< all-reduce of ∆X over the Pr groups
  CostBreakdown ar_dw;       ///< all-reduce of ∆W over the batch groups
  CostBreakdown halo;        ///< domain halo exchange (forward + backward)

  CostBreakdown comm() const { return ag_forward + ar_dx + ar_dw + halo; }
};

/// Full per-iteration cost of a strategy.
struct StrategyCost {
  std::vector<LayerCost> layers;
  double compute = 0.0;  ///< seconds per iteration per process

  CostBreakdown ag_forward() const;
  CostBreakdown ar_dx() const;
  CostBreakdown ar_dw() const;  ///< the "batch-parallel" (cross-hatched) part
  CostBreakdown halo() const;
  double comm() const;
  double total() const { return comm() + compute; }

  /// Fig. 8 overlap model: a fraction of the communication (the two
  /// backprop all-reduces ≈ 2/3) can hide behind backprop compute (≈ 2/3 of
  /// compute). total_overlapped = compute + comm − min(2/3·comm, 2/3·compute).
  double total_overlapped(double overlappable_fraction = 2.0 / 3.0) const;
};

/// --- pure strategies -------------------------------------------------------

/// Eq. 3. `layers` must be the weighted layers only.
StrategyCost model_parallel_cost(const std::vector<nn::LayerSpec>& layers,
                                 std::size_t batch, std::size_t p,
                                 const MachineModel& m, SimOptions opts = {});

/// Eq. 4.
StrategyCost batch_parallel_cost(const std::vector<nn::LayerSpec>& layers,
                                 std::size_t batch, std::size_t p,
                                 const MachineModel& m, SimOptions opts = {});

/// Eq. 7. FC layers are charged a full-input halo (paper §2.4: "the halo
/// exchange region will consist of all of the input activations").
StrategyCost domain_parallel_cost(const std::vector<nn::LayerSpec>& layers,
                                  std::size_t batch, std::size_t p,
                                  const MachineModel& m, SimOptions opts = {});

/// --- integrated strategies -------------------------------------------------

/// Eq. 8 on a Pr × Pc grid (p = pr·pc).
StrategyCost integrated_cost(const std::vector<nn::LayerSpec>& layers,
                             std::size_t batch, std::size_t pr, std::size_t pc,
                             const MachineModel& m,
                             GridMode mode = GridMode::Uniform,
                             SimOptions opts = {});

/// Eq. 9: per-layer roles for the Pr dimension (`roles[i]` for `layers[i]`):
/// Model (L_M) or Domain (L_D, conv layers only); see LayerRole in
/// volumes.hpp.
StrategyCost full_integrated_cost(const std::vector<nn::LayerSpec>& layers,
                                  const std::vector<LayerRole>& roles,
                                  std::size_t batch, std::size_t pr,
                                  std::size_t pc, const MachineModel& m,
                                  SimOptions opts = {});

/// Pick per-conv-layer Model vs Domain by comparing each layer's Pr-dimension
/// communication under Eq. 8 vs Eq. 9 (FC layers are always Model).
std::vector<LayerRole> choose_roles(const std::vector<nn::LayerSpec>& layers,
                                    std::size_t batch, std::size_t pr,
                                    std::size_t pc, const MachineModel& m,
                                    SimOptions opts = {});

/// --- crossover & redistribution ---------------------------------------------

/// Eq. 5: communication-volume ratio batch/model for a conv layer,
/// 2|W_i| / (3·B·d_i). Ratio < 1 means model parallelism moves less data.
double batch_over_model_volume_ratio(const nn::LayerSpec& conv,
                                     std::size_t batch);

/// Largest integer batch size for which model parallelism still moves no
/// more data than batch parallelism: ⌊2·kh·kw·X_C / (3·Y_H·Y_W)⌋.
std::size_t model_favorable_batch_limit(const nn::LayerSpec& conv);

/// Eq. 6: cost of redistributing X from a batch to a model distribution.
CostBreakdown redistribution_cost(const MachineModel& m, std::size_t p,
                                  std::size_t batch, std::size_t d);

/// --- aggregation -------------------------------------------------------------

/// Iterations in one epoch: ⌈N/B⌉.
std::size_t iterations_per_epoch(std::size_t images, std::size_t batch);

/// Epoch time = per-iteration total × ⌈N/B⌉ (overlapped variant optional).
double epoch_seconds(const StrategyCost& cost, std::size_t images,
                     std::size_t batch, bool overlap = false);

}  // namespace mbd::costmodel
