// 1F1B inter-layer pipeline parallelism (PipeDream-style) — the seventh
// trainer, and the first whose schedule program is not the degenerate
// fwd-all/bwd-all sweep.
//
// The layer chain is block-partitioned into P contiguous stage groups, one
// per rank; the mini-batch is column-split into M microbatches. Each rank
// interprets the classic one-forward-one-backward program — min(P−1−rank, M)
// warmup forwards, then (Fwd, Bwd) steady-state pairs, then the drain
// backwards — with boundary activations and gradients moving between
// neighbouring ranks as tagged point-to-point messages through the existing
// fabric. No collective moves a byte, so both ReduceModes are trivially
// bitwise-equal; gradients accumulate across microbatches and apply at the
// fixed end-of-iteration tick, keeping every run bitwise-reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "mbd/comm/comm.hpp"
#include "mbd/nn/trainer.hpp"
#include "mbd/parallel/common.hpp"
#include "mbd/parallel/recovery.hpp"

namespace mbd::parallel {

/// The 1F1B pipeline stage layout as a value (see engine_layout.hpp),
/// including the rank's 1F1B tick program in sched.program and one
/// parameter block per layer, held by the layer's owner.
EngineLayout build_pipeline_layout(
    comm::Comm& comm, const TrainerOptions& opts,
    const std::vector<nn::LayerSpec>& specs, std::size_t batch);

/// Run 1F1B pipelined SGD. `specs` must be all fully connected and at least
/// comm.size() layers deep (every rank needs a non-empty stage group);
/// `microbatches` must be in [1, cfg.batch]. Checkpoint/restart, fault
/// injection, schedule recording, and modeled-compute annotation behave
/// exactly as in the other six trainers.
DistResult train_pipeline(comm::Comm& comm,
                          const std::vector<nn::LayerSpec>& specs,
                          const nn::Dataset& data, const nn::TrainConfig& cfg,
                          std::size_t microbatches = 2, std::uint64_t seed = 42,
                          ReduceMode mode = ReduceMode::Blocking,
                          const RecoveryContext* recovery = nullptr,
                          double seconds_per_flop = 0.0);

}  // namespace mbd::parallel
