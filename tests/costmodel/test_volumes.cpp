// Per-rank volumes must refine the paper's all-rank totals exactly: summing
// costmodel::trainer_rank_volume (folds over the executed round programs)
// over every rank of the grid has to reproduce the closed-form totals —
// an all-gather of N words moves (p−1)·N, a ring all-reduce of n words
// 2(p−1)·n, whatever the partition — byte-for-byte, per traffic class, for
// every trainer. The per-rank forms are what the static schedule analyzer
// checks recorded schedules against, so this pins them to the paper.
#include "mbd/costmodel/volumes.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mbd/nn/models.hpp"

namespace mbd::costmodel {
namespace {

RankVolume sum_over_ranks(TrainerKind kind,
                          const std::vector<nn::LayerSpec>& specs,
                          std::size_t batch, int pr, int pc) {
  RankVolume total;
  for (int r = 0; r < pr * pc; ++r) {
    total += trainer_rank_volume(kind, specs, batch, pr, pc, r);
  }
  return total;
}

constexpr std::uint64_t kWordBytes = sizeof(float);

std::uint64_t allgather_total(int p, std::uint64_t words) {
  return static_cast<std::uint64_t>(p - 1) * words * kWordBytes;
}
std::uint64_t allreduce_total(int p, std::uint64_t words) {
  return 2 * static_cast<std::uint64_t>(p - 1) * words * kWordBytes;
}
// Forward + backward halo rows across the p−1 neighbour pairs of a layer.
std::uint64_t halo_total(int p, std::size_t batch, const tensor::ConvGeom& g) {
  return 2 * 2 * static_cast<std::uint64_t>(p - 1) * batch * g.in_c *
         (g.kernel_h / 2) * g.in_w * kWordBytes;
}

// The paper's all-rank bytes per iteration of each trainer on a pr × pc
// grid (pure trainers: p = pr·pc). Model groups span pr ranks, batch groups
// pc; per-group volumes sum over the groups to the whole batch or |W|.
RankVolume paper_total(TrainerKind kind,
                       const std::vector<nn::LayerSpec>& specs,
                       std::size_t batch, int pr, int pc) {
  const int p = pr * pc;
  RankVolume t;
  const nn::LayerSpec* last_conv = nullptr;
  std::size_t img_h = 0, d_conv_out = 0;
  bool first_fc = true;
  for (const auto& s : specs) {
    if (s.kind == nn::LayerKind::Conv) {
      if (img_h == 0) img_h = s.conv.in_h;
      last_conv = &s;
      d_conv_out = s.d_out();
      t.allreduce_bytes += allreduce_total(p, s.weight_count());
      if (kind == TrainerKind::DomainParallel)
        t.p2p_bytes += halo_total(p, batch, s.conv);
      if (kind == TrainerKind::Hybrid)
        t.p2p_bytes += halo_total(pr, batch, s.conv);
    } else if (s.kind == nn::LayerKind::Pool) {
      d_conv_out = s.d_out();
    } else if (kind == TrainerKind::BatchParallel) {
      t.allreduce_bytes += allreduce_total(p, s.weight_count());
    } else if (kind != TrainerKind::DomainParallel) {
      // Model-parallel FC layer over the pr-rank model groups: Y all-gather,
      // ∆X all-reduce (the 1.5D MLP skips the first layer's), and the ∆W
      // all-reduce over the pc-rank batch groups.
      t.allgather_bytes += allgather_total(pr, s.fc_out * batch);
      const bool mlp = kind == TrainerKind::ModelParallel ||
                       kind == TrainerKind::Integrated15D;
      if (!(mlp && first_fc))
        t.allreduce_bytes += allreduce_total(pr, s.fc_in * batch);
      t.allreduce_bytes += allreduce_total(pc, s.fc_out * s.fc_in);
      first_fc = false;
    }
  }
  if (kind == TrainerKind::DomainParallel || kind == TrainerKind::Hybrid) {
    const auto& g = last_conv->conv;
    const int group = kind == TrainerKind::Hybrid ? pr : p;
    t.allgather_bytes +=
        allgather_total(group, batch * g.out_c * img_h * g.out_w());
  }
  if (kind == TrainerKind::MixedGrid)
    t.allgather_bytes += allgather_total(pr, d_conv_out * batch);
  return t;
}

std::vector<nn::LayerSpec> conv_net() {
  std::vector<nn::LayerSpec> specs;
  specs.push_back(nn::conv_spec("conv1", 2, 8, 8, 4, 3, 1, 1));
  specs.push_back(nn::conv_spec("conv2", 4, 8, 8, 4, 3, 1, 1));
  specs.push_back(nn::fc_spec("fc1", 4 * 8 * 8, 16));
  specs.push_back(nn::fc_spec("fc2", 16, 8, false));
  return specs;
}

TEST(Volumes, BatchParallelRanksSumToPrediction) {
  const auto specs = nn::mlp_spec({12, 16, 4});
  for (int p : {2, 3, 4, 8}) {
    const auto per_rank = sum_over_ranks(TrainerKind::BatchParallel, specs,
                                         /*batch=*/16, /*pr=*/1, p);
    const auto total =
        paper_total(TrainerKind::BatchParallel, specs, 16, 1, p);
    EXPECT_EQ(per_rank.allreduce_bytes, total.allreduce_bytes) << "p=" << p;
    EXPECT_EQ(per_rank.allgather_bytes, 0u) << "p=" << p;
    EXPECT_EQ(per_rank.p2p_bytes, 0u) << "p=" << p;
  }
}

TEST(Volumes, ModelParallelRanksSumToPrediction) {
  const auto specs = nn::mlp_spec({10, 24, 12, 6});
  const std::size_t batch = 12;
  for (int p : {2, 3, 6}) {  // p=3: 24/3 even but 10 and 12 stress ringv
    const auto per_rank =
        sum_over_ranks(TrainerKind::ModelParallel, specs, batch, p, 1);
    const auto total =
        paper_total(TrainerKind::ModelParallel, specs, batch, p, 1);
    EXPECT_EQ(per_rank.allgather_bytes, total.allgather_bytes) << "p=" << p;
    EXPECT_EQ(per_rank.allreduce_bytes, total.allreduce_bytes) << "p=" << p;
    EXPECT_EQ(per_rank.p2p_bytes, 0u) << "p=" << p;
  }
}

TEST(Volumes, Integrated15DRanksSumToPrediction) {
  const auto specs = nn::mlp_spec({10, 24, 12, 12});
  const std::size_t batch = 16;
  for (const auto [pr, pc] : {std::pair{2, 2}, std::pair{3, 2},
                              std::pair{2, 4}, std::pair{4, 2},
                              std::pair{5, 3}}) {  // uneven rows AND columns
    const auto per_rank =
        sum_over_ranks(TrainerKind::Integrated15D, specs, batch, pr, pc);
    const auto total =
        paper_total(TrainerKind::Integrated15D, specs, batch, pr, pc);
    EXPECT_EQ(per_rank.allgather_bytes, total.allgather_bytes)
        << "grid " << pr << "x" << pc;
    EXPECT_EQ(per_rank.allreduce_bytes, total.allreduce_bytes)
        << "grid " << pr << "x" << pc;
  }
}

TEST(Volumes, DomainParallelRanksSumToPrediction) {
  const auto specs = conv_net();
  const std::size_t batch = 8;
  for (int p : {2, 3, 4, 8}) {  // p=3: uneven slabs, all-gatherv transition
    const auto per_rank =
        sum_over_ranks(TrainerKind::DomainParallel, specs, batch, p, 1);
    const auto total =
        paper_total(TrainerKind::DomainParallel, specs, batch, p, 1);
    EXPECT_EQ(per_rank.p2p_bytes, total.p2p_bytes) << "p=" << p;
    EXPECT_EQ(per_rank.allgather_bytes, total.allgather_bytes) << "p=" << p;
    EXPECT_EQ(per_rank.allreduce_bytes, total.allreduce_bytes) << "p=" << p;
  }
}

TEST(Volumes, HybridRanksSumToPrediction) {
  const auto specs = conv_net();
  const std::size_t batch = 8;
  for (const auto [pr, pc] :
       {std::pair{2, 2}, std::pair{4, 2}, std::pair{2, 4}}) {
    const auto per_rank =
        sum_over_ranks(TrainerKind::Hybrid, specs, batch, pr, pc);
    const auto total = paper_total(TrainerKind::Hybrid, specs, batch, pr, pc);
    EXPECT_EQ(per_rank.p2p_bytes, total.p2p_bytes)
        << "grid " << pr << "x" << pc;
    EXPECT_EQ(per_rank.allgather_bytes, total.allgather_bytes)
        << "grid " << pr << "x" << pc;
    EXPECT_EQ(per_rank.allreduce_bytes, total.allreduce_bytes)
        << "grid " << pr << "x" << pc;
  }
}

TEST(Volumes, MixedGridRanksSumToPrediction) {
  const auto specs = nn::small_cnn_spec(2, 8, 8);
  const std::size_t batch = 16;
  for (const auto [pr, pc] : {std::pair{2, 2}, std::pair{3, 2},
                              std::pair{2, 4}, std::pair{4, 2}}) {
    const auto per_rank =
        sum_over_ranks(TrainerKind::MixedGrid, specs, batch, pr, pc);
    const auto total =
        paper_total(TrainerKind::MixedGrid, specs, batch, pr, pc);
    EXPECT_EQ(per_rank.p2p_bytes, total.p2p_bytes)
        << "grid " << pr << "x" << pc;
    EXPECT_EQ(per_rank.allgather_bytes, total.allgather_bytes)
        << "grid " << pr << "x" << pc;
    EXPECT_EQ(per_rank.allreduce_bytes, total.allreduce_bytes)
        << "grid " << pr << "x" << pc;
  }
}

TEST(Volumes, TrainerKindNamesAreStable) {
  EXPECT_EQ(trainer_kind_name(TrainerKind::BatchParallel), "batch");
  EXPECT_EQ(trainer_kind_name(TrainerKind::ModelParallel), "model");
  EXPECT_EQ(trainer_kind_name(TrainerKind::Integrated15D), "integrated");
  EXPECT_EQ(trainer_kind_name(TrainerKind::DomainParallel), "domain");
  EXPECT_EQ(trainer_kind_name(TrainerKind::Hybrid), "hybrid");
  EXPECT_EQ(trainer_kind_name(TrainerKind::MixedGrid), "mixed");
}

}  // namespace
}  // namespace mbd::costmodel
