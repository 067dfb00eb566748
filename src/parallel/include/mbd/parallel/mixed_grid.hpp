// Mixed-grid training: the executable realization of the paper's Fig. 7
// configuration — convolutional (and pooling) layers run PURE BATCH parallel
// on a 1 × P grid, then the activations are REDISTRIBUTED (Eq. 6's
// all-gather) to a Pr × Pc grid on which the fully-connected layers run the
// 1.5D integrated algorithm.
//
// Process (i, j) (i over Pr, j over Pc) holds conv batch block j·Pr + i of
// B/P samples; the redistribution all-gathers those blocks within each model
// group {(·, j)}, after which the group shares its B/Pc columns and the FC
// stack proceeds exactly as in train_integrated_15d. This is the grid switch
// whose cost Eq. 6 shows to be asymptotically free.
#pragma once

#include "mbd/comm/comm.hpp"
#include "mbd/nn/layer_spec.hpp"
#include "mbd/parallel/common.hpp"
#include "mbd/parallel/recovery.hpp"
#include "mbd/parallel/integrated.hpp"

namespace mbd::parallel {

/// Run mixed-grid SGD. `specs` must be conv/pool layers followed by FC
/// layers (any conv geometry — stride, padding, pooling all allowed, since
/// the conv stack is batch parallel); batch ≥ P so every process holds at
/// least one sample. Uneven partitions are allowed everywhere. `mode`
/// selects blocking or overlapped (nonblocking) gradient reductions; both
/// produce bitwise-identical weights and identical traffic.
DistResult train_mixed_grid(comm::Comm& comm, GridShape grid,
                            const std::vector<nn::LayerSpec>& specs,
                            const nn::Dataset& data,
                            const nn::TrainConfig& cfg,
                            std::uint64_t seed = 42,
                            ReduceMode mode = ReduceMode::Blocking,
                            const RecoveryContext* recovery = nullptr,
                            double seconds_per_flop = 0.0);

}  // namespace mbd::parallel
