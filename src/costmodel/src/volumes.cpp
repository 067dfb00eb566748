#include "mbd/costmodel/volumes.hpp"

#include "mbd/comm/rounds.hpp"
#include "mbd/support/check.hpp"

namespace mbd::costmodel {
namespace {

constexpr std::uint64_t kWordBytes = sizeof(float);

// Same block convention as Comm::block_lo / parallel::block_range.
std::uint64_t block_size(std::size_t n, int p, int index) {
  const auto lo = (n * static_cast<std::size_t>(index)) /
                  static_cast<std::size_t>(p);
  const auto hi = (n * static_cast<std::size_t>(index + 1)) /
                  static_cast<std::size_t>(p);
  return hi - lo;
}

// Words in each of the p canonical blocks of `rows` rows of `unit` words.
std::vector<std::uint64_t> block_words(std::size_t rows, int p,
                                       std::uint64_t unit = 1) {
  std::vector<std::uint64_t> words(static_cast<std::size_t>(p));
  for (int b = 0; b < p; ++b)
    words[static_cast<std::size_t>(b)] = block_size(rows, p, b) * unit;
  return words;
}

// Bytes a rank sends all-gathering `rows` rows of `unit` words each, cut
// into p canonical row blocks: FC outputs (d_out rows of b_loc batch
// columns) and conv output slabs (img_h rows of n_loc·c·w words). Bruck when
// p divides `rows` (FcStage's and gather_slabs' dispatch), the ring
// all-gatherv otherwise.
std::uint64_t row_allgather_bytes(std::size_t rows, int p, std::uint64_t unit,
                                  int group_rank) {
  const auto algo = rows % static_cast<std::size_t>(p) == 0
                        ? comm::AllGatherAlgo::Bruck
                        : comm::AllGatherAlgo::Ring;
  return comm::send_words(comm::allgather_rounds(algo, p, group_rank),
                          block_words(rows, p, unit)) *
         kWordBytes;
}

std::uint64_t ring_allreduce_bytes(int p, std::size_t n, int rank) {
  return comm::send_words(
             comm::allreduce_rounds(comm::AllReduceAlgo::Ring, p, rank),
             block_words(n, p)) *
         kWordBytes;
}

// Bytes a rank sends halo-exchanging one conv layer (forward + backward):
// interior ranks talk to both neighbours, edge ranks to one.
std::uint64_t halo_bytes(int p, int rank, std::size_t n_loc, std::size_t in_c,
                         std::size_t halo, std::size_t in_w) {
  if (halo == 0 || p <= 1) return 0;
  const std::uint64_t neighbours =
      static_cast<std::uint64_t>(rank > 0) +
      static_cast<std::uint64_t>(rank < p - 1);
  return 2 * neighbours * n_loc * in_c * halo * in_w * kWordBytes;
}

RankVolume batch_parallel_volume(const std::vector<nn::LayerSpec>& specs,
                                 int p, int rank) {
  RankVolume v;
  for (const auto& s : specs) {
    if (!s.has_weights()) continue;
    v.allreduce_bytes += ring_allreduce_bytes(p, s.weight_count(), rank);
  }
  return v;
}

RankVolume model_parallel_volume(const std::vector<nn::LayerSpec>& specs,
                                 std::size_t batch, int p, int rank) {
  RankVolume v;
  bool first = true;
  for (const auto& s : specs) {
    MBD_CHECK(s.kind == nn::LayerKind::FullyConnected);
    v.allgather_bytes += row_allgather_bytes(s.fc_out, p, batch, rank);
    if (!first)
      v.allreduce_bytes += ring_allreduce_bytes(p, s.fc_in * batch, rank);
    first = false;
  }
  return v;
}

RankVolume integrated_15d_volume(const std::vector<nn::LayerSpec>& specs,
                                 std::size_t batch, int pr, int pc, int rank) {
  RankVolume v;
  const int row = rank / pc;
  const int col = rank % pc;
  const std::size_t b_loc = block_size(batch, pc, col);
  bool first = true;
  for (const auto& s : specs) {
    MBD_CHECK(s.kind == nn::LayerKind::FullyConnected);
    v.allgather_bytes += row_allgather_bytes(s.fc_out, pr, b_loc, row);
    if (!first)
      v.allreduce_bytes += ring_allreduce_bytes(pr, s.fc_in * b_loc, row);
    v.allreduce_bytes += ring_allreduce_bytes(
        pc, block_size(s.fc_out, pr, row) * s.fc_in, col);
    first = false;
  }
  return v;
}

RankVolume domain_parallel_volume(const std::vector<nn::LayerSpec>& specs,
                                  std::size_t batch, int p, int rank) {
  RankVolume v;
  std::size_t img_h = 0;
  const nn::LayerSpec* last_conv = nullptr;
  for (const auto& s : specs) {
    if (s.kind != nn::LayerKind::Conv) continue;
    const auto& g = s.conv;
    if (img_h == 0) img_h = g.in_h;
    last_conv = &s;
    v.p2p_bytes += halo_bytes(p, rank, batch, g.in_c, g.kernel_h / 2, g.in_w);
    v.allreduce_bytes += ring_allreduce_bytes(p, g.weight_count(), rank);
  }
  MBD_CHECK(last_conv != nullptr);
  const auto& g = last_conv->conv;
  v.allgather_bytes +=
      row_allgather_bytes(img_h, p, batch * g.out_c * g.out_w(), rank);
  return v;
}

RankVolume hybrid_volume(const std::vector<nn::LayerSpec>& specs,
                         std::size_t batch, int pr, int pc, int rank) {
  RankVolume v;
  const int p = pr * pc;
  const int row = rank / pc;
  const int col = rank % pc;
  const std::size_t b_loc = block_size(batch, pc, col);
  std::size_t img_h = 0;
  const nn::LayerSpec* last_conv = nullptr;
  for (const auto& s : specs) {
    if (s.kind == nn::LayerKind::Conv) {
      const auto& g = s.conv;
      if (img_h == 0) img_h = g.in_h;
      last_conv = &s;
      v.p2p_bytes += halo_bytes(pr, row, b_loc, g.in_c, g.kernel_h / 2, g.in_w);
      // Conv ∆W is all-reduced over ALL processes (weights fully replicated).
      v.allreduce_bytes += ring_allreduce_bytes(p, g.weight_count(), rank);
    } else if (s.kind == nn::LayerKind::FullyConnected) {
      v.allgather_bytes += row_allgather_bytes(s.fc_out, pr, b_loc, row);
      // Every FC layer's ∆X is reduced — the conv stack below needs even
      // the first FC layer's input gradient.
      v.allreduce_bytes += ring_allreduce_bytes(pr, s.fc_in * b_loc, row);
      v.allreduce_bytes += ring_allreduce_bytes(
          pc, block_size(s.fc_out, pr, row) * s.fc_in, col);
    }
  }
  MBD_CHECK(last_conv != nullptr);
  const auto& g = last_conv->conv;
  v.allgather_bytes +=
      row_allgather_bytes(img_h, pr, b_loc * g.out_c * g.out_w(), row);
  return v;
}

RankVolume pipeline_volume(const std::vector<nn::LayerSpec>& specs,
                           std::size_t batch, int p, int rank) {
  const std::size_t num_layers = specs.size();
  MBD_CHECK_LE(static_cast<std::size_t>(p), num_layers);
  for (const auto& s : specs) MBD_CHECK(s.kind == nn::LayerKind::FullyConnected);
  // Output width of rank k's last owned layer under the canonical block
  // partition of the layer chain — the activation/gradient boundary between
  // ranks k and k+1.
  const auto boundary = [&](int k) {
    const auto hi = (num_layers * static_cast<std::size_t>(k + 1)) /
                    static_cast<std::size_t>(p);
    return specs[hi - 1].fc_out;
  };
  RankVolume v;
  // Forward activations to rank+1 and backward gradients to rank−1, one
  // message per microbatch; the microbatch column blocks of B sum to B, so
  // the per-iteration volume is microbatch-count-independent.
  if (rank < p - 1) v.p2p_bytes += boundary(rank) * batch * kWordBytes;
  if (rank > 0) v.p2p_bytes += boundary(rank - 1) * batch * kWordBytes;
  return v;
}

RankVolume mixed_grid_volume(const std::vector<nn::LayerSpec>& specs,
                             std::size_t batch, int pr, int pc, int rank) {
  RankVolume v;
  const int p = pr * pc;
  const int row = rank / pc;
  const int col = rank % pc;
  const std::size_t b_loc = block_size(batch, pc, col);
  std::size_t d_conv_out = 0;
  for (const auto& s : specs) {
    switch (s.kind) {
      case nn::LayerKind::Conv:
        // Batch-parallel conv phase: full-weight ring all-reduce over all P.
        v.allreduce_bytes += ring_allreduce_bytes(p, s.weight_count(), rank);
        d_conv_out = s.d_out();
        break;
      case nn::LayerKind::Pool:
        d_conv_out = s.d_out();
        break;
      case nn::LayerKind::FullyConnected:
        v.allgather_bytes += row_allgather_bytes(s.fc_out, pr, b_loc, row);
        v.allreduce_bytes += ring_allreduce_bytes(pr, s.fc_in * b_loc, row);
        v.allreduce_bytes += ring_allreduce_bytes(
            pc, block_size(s.fc_out, pr, row) * s.fc_in, col);
        break;
    }
  }
  MBD_CHECK_GT(d_conv_out, 0u);
  // Eq. 6 redistribution: always the ring all-gatherv (RedistributeStage),
  // over the model group; member m contributes its conv-phase column block
  // (index col·Pr + m of the canonical P-way batch partition).
  std::vector<std::uint64_t> blocks(static_cast<std::size_t>(pr));
  for (int m = 0; m < pr; ++m) {
    blocks[static_cast<std::size_t>(m)] =
        d_conv_out * block_size(batch, p, col * pr + m);
  }
  v.allgather_bytes +=
      comm::send_words(
          comm::allgather_rounds(comm::AllGatherAlgo::Ring, pr, row), blocks) *
      kWordBytes;
  return v;
}

}  // namespace

std::string_view trainer_kind_name(TrainerKind k) {
  switch (k) {
    case TrainerKind::BatchParallel: return "batch";
    case TrainerKind::ModelParallel: return "model";
    case TrainerKind::Integrated15D: return "integrated";
    case TrainerKind::DomainParallel: return "domain";
    case TrainerKind::Hybrid: return "hybrid";
    case TrainerKind::MixedGrid: return "mixed";
    case TrainerKind::Pipeline: return "pipeline";
  }
  return "?";
}

RankVolume trainer_rank_volume(TrainerKind kind,
                               const std::vector<nn::LayerSpec>& specs,
                               std::size_t batch, int pr, int pc, int rank) {
  MBD_CHECK_GT(pr, 0);
  MBD_CHECK_GT(pc, 0);
  const int p = pr * pc;
  MBD_CHECK(rank >= 0 && rank < p);
  switch (kind) {
    case TrainerKind::BatchParallel:
      return batch_parallel_volume(specs, p, rank);
    case TrainerKind::ModelParallel:
      return model_parallel_volume(specs, batch, p, rank);
    case TrainerKind::Integrated15D:
      return integrated_15d_volume(specs, batch, pr, pc, rank);
    case TrainerKind::DomainParallel:
      return domain_parallel_volume(specs, batch, p, rank);
    case TrainerKind::Hybrid:
      return hybrid_volume(specs, batch, pr, pc, rank);
    case TrainerKind::MixedGrid:
      return mixed_grid_volume(specs, batch, pr, pc, rank);
    case TrainerKind::Pipeline:
      return pipeline_volume(specs, batch, p, rank);
  }
  MBD_CHECK(false);
  return {};
}

}  // namespace mbd::costmodel
