// Pure model-parallel SGD for fully-connected networks (paper Fig. 1, Eq. 3).
//
// Each process owns a block of d_i/P rows of every weight matrix; input
// activations are replicated. The forward pass all-gathers each layer's
// output rows; backprop all-reduces the ∆X contributions. ∆W needs no
// communication — each process sees the full batch for its weight rows.
#pragma once

#include "mbd/comm/comm.hpp"
#include "mbd/nn/layer_spec.hpp"
#include "mbd/parallel/common.hpp"
#include "mbd/parallel/recovery.hpp"

namespace mbd::parallel {

/// Run model-parallel SGD. `specs` must be all fully-connected (an MLP).
/// Output dimensions need not divide comm.size(): equal row blocks go
/// through the Bruck all-gather, uneven ones through the ring all-gatherv.
/// Weight initialization matches nn::build_network(specs, {seed}) exactly,
/// so final parameters are directly comparable with the sequential
/// reference. `mode` selects how gradient reductions complete (see
/// ReduceMode); results are bitwise identical either way.
DistResult train_model_parallel(comm::Comm& comm,
                                const std::vector<nn::LayerSpec>& specs,
                                const nn::Dataset& data,
                                const nn::TrainConfig& cfg,
                                std::uint64_t seed = 42,
                                ReduceMode mode = ReduceMode::Blocking,
                                const RecoveryContext* recovery = nullptr,
                                double seconds_per_flop = 0.0);

}  // namespace mbd::parallel
