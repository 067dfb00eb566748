// A trainer's stage layout as a first-class value.
//
// An EngineLayout is one rank's view of a training configuration: the comm
// groups (owned, so their addresses stay stable for the stages that point
// at them), the stage list, the StepSchedule, and the data-movement
// contract an *executor* needs — which input columns this rank feeds
// (InputSpec), where the logits end up (OutputSpec), and where the trained
// parameters live (ParamBlock).
//
// build_layout derives all of it from a costmodel::ParallelPlan — a
// Pr × Pc grid plus a role per layer — and the six collective trainers are
// named plans of it (named_layout). The pipeline, the one trainer that is
// not a grid layout, has its own build_pipeline_layout. Every layout draws
// full weight matrices in layer order from the stream nn::build_network
// uses and keeps its own block, so it starts from the sequential
// reference's weights bit for bit.
//
// `train_layout` is the training loop: it moves the stages into a
// LayerEngine and runs it. `serve::InferenceSession` is the second
// executor: it interprets a derived forward-only tick program over the
// same stages — no Bwd ticks, no optimizer state — and assembles the logits
// per the OutputSpec.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "mbd/comm/comm.hpp"
#include "mbd/costmodel/volumes.hpp"
#include "mbd/nn/layer_spec.hpp"
#include "mbd/parallel/common.hpp"
#include "mbd/parallel/layer_engine.hpp"

namespace mbd::parallel {

/// Which block of the global mini-batch's columns this rank feeds into its
/// first stage: columns block_range(B, parts, index). parts == 1 means the
/// rank reads the whole replicated batch.
struct InputSpec {
  int parts = 1;
  int index = 0;
};

/// Where the final stage's logits live after a forward pass. Either the
/// full d_out × B matrix is replicated on every rank, or it is column-block
/// partitioned into `parts` blocks, block i (columns block_range(B, parts,
/// i)) held in full by rank owners[i] — the contract an executor uses to
/// assemble replicated logits via per-block broadcasts.
struct OutputSpec {
  bool replicated = false;
  int parts = 1;
  std::vector<int> owners;  ///< size == parts when !replicated
};

/// A block of the full parameter vector held by one rank only.
struct ParamBlock {
  int owner = 0;
  std::size_t size = 0;  ///< floats
};

/// One rank's complete view of a trainer configuration: the comm groups the
/// stages communicate over (owned here so stage pointers stay valid for the
/// layout's lifetime), the stages themselves, the engine schedule, and the
/// input/output data-movement contract.
struct EngineLayout {
  std::vector<std::unique_ptr<comm::Comm>> groups;
  std::vector<std::unique_ptr<EngineStage>> stages;
  StepSchedule sched;
  InputSpec input;
  OutputSpec output;
  /// Empty when every rank's stages collect the full parameter vector.
  /// Otherwise the vector is these blocks in order, each held by its owner
  /// (the pipeline's whole layers), and train_layout broadcasts them.
  std::vector<ParamBlock> param_blocks;
  std::size_t d_in = 0;   ///< first stage's expected row count
  std::size_t d_out = 0;  ///< logits row count
};

/// The stages of `plan` on this rank (see the role → stage table in
/// docs/parallel_engine.md). Throws mbd::Error naming the layer when
/// costmodel::check_plan rejects the plan, and when pr·pc is not
/// comm.size() or the batch has fewer columns than the plan splits it into
/// (P for a Batch front, Pc otherwise). Weights come from
/// Rng(opts.seed) in layer order; an all-Batch plan builds
/// nn::build_network(specs, {.seed = opts.seed}).
EngineLayout build_layout(comm::Comm& comm,
                          const costmodel::ParallelPlan& plan,
                          const TrainerOptions& opts,
                          const std::vector<nn::LayerSpec>& specs,
                          std::size_t batch);

/// The layout of a registry trainer other than the pipeline: build_layout
/// over costmodel::named_plan(kind, ...). The pure trainers (batch, model,
/// domain) run on all of `comm` and ignore opts.grid.
EngineLayout named_layout(costmodel::TrainerKind kind, comm::Comm& comm,
                          const TrainerOptions& opts,
                          const std::vector<nn::LayerSpec>& specs,
                          std::size_t batch);

/// Run the shared training loop over a built layout: move the stages into a
/// LayerEngine, train, and assemble the parameter blocks when the layout
/// has any. The layout's comm groups stay alive in this frame for the
/// duration.
DistResult train_layout(comm::Comm& comm, EngineLayout layout,
                        const nn::Dataset& data, const nn::TrainConfig& cfg,
                        const RecoveryContext* recovery = nullptr);

}  // namespace mbd::parallel
