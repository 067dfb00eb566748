// Layouts as plans, and the per-rank traffic of the seven trainers.
//
// A ParallelPlan is one layout of the paper's integrated algorithm: a
// Pr × Pc grid plus a role per layer (Eq. 9's L_M/L_D lists, extended by
// the Batch and Replicated roles the executable trainers use). Six of the
// seven trainers are named plans (named_plan); parallel::build_layout runs
// a plan, and trainer_rank_volume folds the same plan into traffic. The 1F1B
// pipeline is the one trainer that is not a grid layout; it keeps its own
// builder and closed form.
//
// trainer_rank_volume gives the exact bytes *one* rank sends per SGD
// iteration, per traffic class. Each collective's share is a fold over the
// round program (mbd/comm/rounds.hpp) that Comm itself executes, so the
// prediction is the running algorithm by construction: the ring
// all-reduce's uneven ⌊n·b/p⌋ blocks and the ring all-gatherv's uneven
// origin blocks give different ranks different send volumes, and the model
// sees exactly those. Summed over ranks, these are the all-rank totals the
// trainers' measured-versus-model tests and bench_validation_volume check.
//
// These are the reference the static schedule analyzer (mbd/analysis)
// compares extracted schedules against byte-for-byte: analyzer-summed Send
// events per rank per iteration must equal trainer_rank_volume exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "mbd/nn/layer_spec.hpp"

namespace mbd::costmodel {

/// Which distributed trainer a volume prediction describes.
enum class TrainerKind {
  BatchParallel,
  ModelParallel,
  Integrated15D,
  DomainParallel,
  Hybrid,
  MixedGrid,
  Pipeline,
};

/// Stable lowercase name ("batch", "model", "integrated", "domain",
/// "hybrid", "mixed", "pipeline") used in reports and CLI arguments.
std::string_view trainer_kind_name(TrainerKind k);

/// What one layer does on the Pr × Pc grid. Eq. 9 names the first two:
///   Model      — L_M: weight rows split over Pr, batch columns over Pc
///                (Eq. 8). Runs fully connected layers.
///   Domain     — L_D: each sample's image rows split over Pr, weights
///                replicated (Eq. 7). Runs stride-1, odd-kernel, same-padded
///                convolutions.
///   Batch      — full weights on this rank's B/P batch columns (Eq. 4).
///   Replicated — full weights and the full batch on every rank; moves no
///                data (the domain trainer's FC tail).
enum class LayerRole { Model, Domain, Batch, Replicated };

/// One layout: the grid (rank = row·Pc + col) and a role per layer. Every
/// plan is a front run of Batch or Domain layers (possibly empty) followed
/// by a tail of fully connected layers in one role. `split` says whether
/// the Pr groups {(·, col)} and the Pc groups {(row, ·)} are split out of
/// the world; an unsplit plan is 1 × P or P × 1 and talks over the world.
struct ParallelPlan {
  int pr = 1;
  int pc = 1;
  bool split = false;
  std::vector<LayerRole> roles;  ///< one per layer
};

/// The plan of every trainer but the pipeline. The pure trainers run on
/// p = pr·pc ranks and ignore the grid shape; conv and pool layers take the
/// front role, FC layers the tail role:
///   batch       1 × P    unsplit  every layer Batch
///   model       P × 1    unsplit  every layer Model
///   integrated  pr × pc  split    every layer Model
///   domain      P × 1    unsplit  conv/pool Domain, FC Replicated
///   hybrid      pr × pc  split    conv/pool Domain, FC Model
///   mixed       pr × pc  split    conv/pool Batch,  FC Model
/// Hybrid and mixed need a conv or pool layer first: without one they would
/// be the 1.5D plan under another name.
ParallelPlan named_plan(TrainerKind kind,
                        const std::vector<nn::LayerSpec>& specs, int pr,
                        int pc);

/// Throws mbd::Error, naming the offending layer, unless `plan` is one of
/// the six shapes above and `specs` fit it: Domain layers are stride-1,
/// odd square kernel, same-padded convs of one image height with at least
/// Pr rows; Model and Replicated layers are fully connected; a front stack
/// feeds the tail exactly its first layer's fc_in activations.
void check_plan(const ParallelPlan& plan,
                const std::vector<nn::LayerSpec>& specs);

/// Length of the plan's front run of Batch or Domain layers (0 when it
/// starts with its FC tail).
std::size_t front_layers(const ParallelPlan& plan);

/// Bytes one rank sends per SGD iteration, by traffic class.
struct RankVolume {
  std::uint64_t allreduce_bytes = 0;
  std::uint64_t allgather_bytes = 0;
  std::uint64_t p2p_bytes = 0;  ///< halo exchanges

  std::uint64_t total() const {
    return allreduce_bytes + allgather_bytes + p2p_bytes;
  }
  RankVolume& operator+=(const RankVolume& o) {
    allreduce_bytes += o.allreduce_bytes;
    allgather_bytes += o.allgather_bytes;
    p2p_bytes += o.p2p_bytes;
    return *this;
  }
};

/// Exact bytes rank `rank` (global, row-major on the Pr×Pc grid: row =
/// rank/pc, col = rank%pc) sends per iteration when training `specs` with
/// the given trainer. Pure trainers (batch/model/domain) run on p = pr·pc
/// ranks and ignore the grid shape. For every trainer but the pipeline this
/// is one fold over named_plan's roles, mirroring the stages
/// parallel::build_layout emits for them: Model layers all-gather Y (Bruck
/// when Pr divides the rows, the ring all-gatherv otherwise) and all-reduce
/// ∆X over Pr and ∆W over Pc; Batch and Domain layers all-reduce full
/// weights over all P, and Domain layers exchange halos within Pr; leaving
/// a Domain stack all-gathers its slabs, and a Batch stack feeding Model
/// layers pays the Eq. 6 redistribution all-gatherv.
/// Setup traffic (communicator splits, final parameter assembly) and the
/// loss reduction are excluded: tests measure per-iteration deltas to
/// factor them out.
///
/// The 1F1B pipeline trainer runs on p = pr·pc ranks as a linear chain of
/// layer groups (MLP only). Its per-iteration point-to-point volume is
/// independent of the microbatch count — the microbatch column blocks of B
/// sum back to B — so rank k sends exactly
///   4·B·(d_boundary(k)·[k < p−1] + d_boundary(k−1)·[k > 0])
/// bytes, where d_boundary(k) is the output width of rank k's last owned
/// layer; no collective moves a byte.
RankVolume trainer_rank_volume(TrainerKind kind,
                               const std::vector<nn::LayerSpec>& specs,
                               std::size_t batch, int pr, int pc, int rank);

}  // namespace mbd::costmodel
