// Integrated model+batch parallel SGD on a Pr × Pc process grid — the
// executable realization of the paper's 1.5D algorithm (Fig. 5, Eq. 8).
//
// Process (i, j) owns row block i of every W (1/Pr of the model, replicated
// Pc times) and column block j of every activation (1/Pc of the batch,
// replicated Pr times). Per layer:
//   forward:  local matmul, then all-gather of Y row blocks over the Pr
//             group {(·, j)};
//   ∆W:       local ∆Y_block·Xᵀ, then all-reduce over the Pc group {(i, ·)};
//   ∆X:       local Wᵀ·∆Y_block, then all-reduce over the Pr group {(·, j)}.
#pragma once

#include "mbd/comm/comm.hpp"
#include "mbd/nn/layer_spec.hpp"
#include "mbd/parallel/common.hpp"
#include "mbd/parallel/recovery.hpp"

namespace mbd::parallel {

/// Run 1.5D integrated SGD. `specs` must be all fully connected; batch must
/// be at least pc. Neither d_out/pr nor batch/pc need divide evenly (uneven
/// blocks use the ring all-gatherv / block column partition). pr = P, pc = 1
/// degenerates to pure model parallelism; pr = 1, pc = P to pure batch
/// parallelism.
///
/// With ReduceMode::Overlapped, each layer's ∆W all-reduce (Pc group) is
/// issued nonblocking and completes behind the GEMMs of the layers below,
/// and the ∆X all-reduce (Pr group) hides behind the same layer's ∆W GEMM —
/// the paper's Fig. 8 overlap, executable. The nonblocking ring runs the
/// identical schedule as blocking mode: byte counts and weights match bit
/// for bit. `seconds_per_flop` > 0 logs modeled compute annotations into an
/// enabled trace so replay can measure the overlap actually achieved.
DistResult train_integrated_15d(comm::Comm& comm, GridShape grid,
                                const std::vector<nn::LayerSpec>& specs,
                                const nn::Dataset& data,
                                const nn::TrainConfig& cfg,
                                std::uint64_t seed = 42,
                                ReduceMode mode = ReduceMode::Blocking,
                                double seconds_per_flop = 0.0,
                                const RecoveryContext* recovery = nullptr);

}  // namespace mbd::parallel
