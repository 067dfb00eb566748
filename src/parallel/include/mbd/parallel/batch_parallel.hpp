// Pure batch-parallel SGD (paper Fig. 2, Eq. 4).
//
// Every process holds the full model; the mini-batch's columns are block-
// partitioned over processes. The forward pass needs no communication; the
// backward pass ends with one ring all-reduce of every layer's ∆W.
#pragma once

#include "mbd/comm/comm.hpp"
#include "mbd/nn/network.hpp"
#include "mbd/parallel/common.hpp"
#include "mbd/parallel/recovery.hpp"

namespace mbd::parallel {

/// Run `cfg.iterations` steps of batch-parallel SGD on comm's ranks.
/// Every rank builds an identical network from (specs, build options), so
/// weights start equal and stay equal after each all-reduced step.
/// Must be called collectively (inside World::run). With
/// ReduceMode::Overlapped the per-layer ∆W all-reduces are issued
/// nonblocking and drained before the SGD step — same ring schedule, same
/// bytes, bitwise-identical weights.
DistResult train_batch_parallel(comm::Comm& comm,
                                const std::vector<nn::LayerSpec>& specs,
                                const nn::Dataset& data,
                                const nn::TrainConfig& cfg,
                                const nn::BuildOptions& build = {},
                                ReduceMode mode = ReduceMode::Blocking,
                                const RecoveryContext* recovery = nullptr,
                                double seconds_per_flop = 0.0);

}  // namespace mbd::parallel
