// Fully integrated model+batch+domain parallel SGD (paper §2.4, Eq. 9).
//
// On a Pr × Pc grid, the Pc dimension partitions the mini-batch. Within each
// batch group the Pr dimension is used as *domain* parallelism for the conv
// stack (height slabs + halo exchange, LD layers) and as *model* parallelism
// for the FC tail (1.5D row partition, LM layers) — exactly the assignment
// the paper recommends: domain for the early layers with large activations,
// model for the fully-connected layers where the halo would degenerate to
// the whole input.
//
// This is the executable that "extends the strong scaling limit of pure
// batch parallelism": with B = Pc and Pr > 1, P = Pr·Pc exceeds the batch
// size while every process still has a full slab of work (Fig. 10).
#pragma once

#include "mbd/comm/comm.hpp"
#include "mbd/nn/layer_spec.hpp"
#include "mbd/parallel/common.hpp"
#include "mbd/parallel/recovery.hpp"
#include "mbd/parallel/integrated.hpp"

namespace mbd::parallel {

/// Run fully integrated SGD. `specs` must be a stride-1 odd-kernel same-pad
/// conv stack followed by FC layers; grid.pr must not exceed the image
/// height and grid.pc must not exceed the batch (uneven partitions allowed).
/// `overlap_halo` computes interior conv rows while the halo is in flight.
/// `mode` selects blocking or overlapped (nonblocking) gradient reductions;
/// both produce bitwise-identical weights and identical traffic.
DistResult train_hybrid(comm::Comm& comm, GridShape grid,
                        const std::vector<nn::LayerSpec>& specs,
                        const nn::Dataset& data, const nn::TrainConfig& cfg,
                        std::uint64_t seed = 42, bool overlap_halo = false,
                        ReduceMode mode = ReduceMode::Blocking,
                        const RecoveryContext* recovery = nullptr,
                        double seconds_per_flop = 0.0);

}  // namespace mbd::parallel
