// Pure domain-parallel SGD (paper Fig. 3, Eq. 7).
//
// Every process holds the full model and ALL samples of the mini-batch, but
// only a horizontal slab (a block of image rows — the paper's recommended
// split for NCHW) of each sample. Convolutions exchange ⌊k/2⌋ boundary rows
// with the two neighbouring processes (the halo); ∆W is all-reduced over all
// processes. Fully-connected layers are computed replicated after an
// all-gather of the conv stack's output — the "halo is the whole input"
// degeneration the paper describes for FC layers.
#pragma once

#include "mbd/comm/comm.hpp"
#include "mbd/nn/layer_spec.hpp"
#include "mbd/parallel/common.hpp"
#include "mbd/parallel/recovery.hpp"

namespace mbd::parallel {

/// Run domain-parallel SGD. `specs` must be a stack of stride-1, odd-kernel,
/// same-padded conv layers followed by FC layers (no pooling); each rank's
/// height slab (block partition, uneven allowed) must be at least as tall as
/// the largest halo. Weight init matches nn::build_network(specs).
/// `overlap_halo` computes interior conv rows while the halo is in flight
/// (§2.2's non-blocking exchange); results are identical either way.
/// `mode` selects blocking or overlapped (nonblocking, drained before the
/// SGD step) ∆W all-reduces — also bitwise identical.
DistResult train_domain_parallel(comm::Comm& comm,
                                 const std::vector<nn::LayerSpec>& specs,
                                 const nn::Dataset& data,
                                 const nn::TrainConfig& cfg,
                                 std::uint64_t seed = 42,
                                 bool overlap_halo = false,
                                 ReduceMode mode = ReduceMode::Blocking,
                                 const RecoveryContext* recovery = nullptr,
                                 double seconds_per_flop = 0.0);

}  // namespace mbd::parallel
