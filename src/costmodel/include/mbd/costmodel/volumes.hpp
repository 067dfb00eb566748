// Per-rank traffic volumes of the seven distributed trainers.
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
/// ranks and ignore the grid shape. Mirrors mbd/parallel exactly: FC
/// all-gathers use Bruck when the row count divides evenly and the ring
/// all-gatherv otherwise, conv stacks halo-exchange and all-reduce per
/// layer, and the mixed grid pays the Eq. 6 redistribution all-gatherv.
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
