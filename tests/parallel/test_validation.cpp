// Measured-equals-predicted communication volumes: the executed trainers'
// instrumented byte counts must match the cost model's prediction (Σ over
// ranks of costmodel::trainer_rank_volume) exactly. This certifies the
// paper's Eq. 3/4/7/8 bandwidth terms against running code — the bandwidth
// words of those formulas are per-process counts of precisely these
// collectives.
#include <gtest/gtest.h>

#include "mbd/parallel/batch_parallel.hpp"
#include "mbd/parallel/domain_parallel.hpp"
#include "mbd/parallel/hybrid.hpp"
#include "mbd/parallel/integrated.hpp"
#include "mbd/parallel/model_parallel.hpp"
#include "parallel_test_util.hpp"

namespace mbd::parallel {
namespace {

using costmodel::RankVolume;
using costmodel::TrainerKind;
using testing::predicted_volume;

/// Runs `fn` for 1 and for 3 iterations and returns the per-iteration byte
/// deltas — factoring out setup traffic (communicator splits, final
/// parameter assembly) that happens once per run.
template <typename Fn>
RankVolume measure_per_iteration(int p, Fn fn) {
  auto run = [&](std::size_t iters) {
    comm::World world(p);
    world.run([&](comm::Comm& c) { fn(c, iters); });
    return world.stats();
  };
  const auto s1 = run(1);
  const auto s3 = run(3);
  RankVolume t;
  t.allreduce_bytes = (s3[comm::Coll::AllReduce].bytes -
                       s1[comm::Coll::AllReduce].bytes) /
                      2;
  t.allgather_bytes = (s3[comm::Coll::AllGather].bytes -
                       s1[comm::Coll::AllGather].bytes) /
                      2;
  t.p2p_bytes =
      (s3[comm::Coll::PointToPoint].bytes - s1[comm::Coll::PointToPoint].bytes) /
      2;
  return t;
}

TEST(Validation, BatchParallelAllReduceVolume) {
  const auto specs = nn::mlp_spec({12, 16, 4});
  const auto data = nn::make_synthetic_dataset(12, 4, 64, 3);
  for (int p : {2, 3, 4, 8}) {
    nn::TrainConfig cfg;
    cfg.batch = 16;
    const auto measured = measure_per_iteration(p, [&](comm::Comm& c,
                                                       std::size_t iters) {
      auto c2 = cfg;
      c2.iterations = iters;
      (void)train_batch_parallel(c, specs, data, c2);
    });
    const auto predicted = predicted_volume(TrainerKind::BatchParallel, specs,
                                            cfg.batch, 1, p);
    EXPECT_EQ(measured.allreduce_bytes, predicted.allreduce_bytes) << "p=" << p;
    EXPECT_EQ(measured.allgather_bytes, 0u) << "p=" << p;
    EXPECT_EQ(measured.p2p_bytes, 0u) << "p=" << p;
  }
}

TEST(Validation, ModelParallelVolumes) {
  const auto specs = nn::mlp_spec({10, 24, 12, 6});
  const auto data = nn::make_synthetic_dataset(10, 6, 48, 5);
  for (int p : {2, 3, 6}) {
    nn::TrainConfig cfg;
    cfg.batch = 12;
    const auto measured = measure_per_iteration(p, [&](comm::Comm& c,
                                                       std::size_t iters) {
      auto c2 = cfg;
      c2.iterations = iters;
      (void)train_model_parallel(c, specs, data, c2);
    });
    const auto predicted = predicted_volume(TrainerKind::ModelParallel, specs,
                                            cfg.batch, p, 1);
    EXPECT_EQ(measured.allgather_bytes, predicted.allgather_bytes) << "p=" << p;
    EXPECT_EQ(measured.allreduce_bytes, predicted.allreduce_bytes) << "p=" << p;
  }
}

TEST(Validation, Integrated15DVolumes) {
  const auto specs = nn::mlp_spec({10, 24, 12, 12});
  const auto data = nn::make_synthetic_dataset(10, 12, 48, 7);
  for (const auto [pr, pc] : {std::pair{2, 2}, std::pair{3, 2},
                              std::pair{2, 4}, std::pair{4, 2},
                              std::pair{5, 3}}) {  // uneven rows AND columns
    nn::TrainConfig cfg;
    cfg.batch = 16;
    const GridShape grid{pr, pc};
    const auto measured = measure_per_iteration(
        pr * pc, [&, grid](comm::Comm& c, std::size_t iters) {
          auto c2 = cfg;
          c2.iterations = iters;
          (void)train_integrated_15d(c, grid, specs, data, c2);
        });
    const auto predicted =
        predicted_volume(TrainerKind::Integrated15D, specs, cfg.batch, pr, pc);
    EXPECT_EQ(measured.allgather_bytes, predicted.allgather_bytes)
        << "grid " << pr << "x" << pc;
    EXPECT_EQ(measured.allreduce_bytes, predicted.allreduce_bytes)
        << "grid " << pr << "x" << pc;
  }
}

TEST(Validation, DomainParallelVolumes) {
  std::vector<nn::LayerSpec> specs;
  specs.push_back(nn::conv_spec("conv1", 2, 8, 8, 4, 3, 1, 1));
  specs.push_back(nn::conv_spec("conv2", 4, 8, 8, 4, 3, 1, 1));
  specs.push_back(nn::fc_spec("fc1", 4 * 8 * 8, 16));
  specs.push_back(nn::fc_spec("fc2", 16, 4, false));
  const auto data = nn::make_synthetic_dataset(2 * 8 * 8, 4, 32, 9);
  for (int p : {2, 3, 4, 8}) {  // p=3: uneven slabs, all-gatherv transition
    nn::TrainConfig cfg;
    cfg.batch = 8;
    const auto measured = measure_per_iteration(p, [&](comm::Comm& c,
                                                       std::size_t iters) {
      auto c2 = cfg;
      c2.iterations = iters;
      (void)train_domain_parallel(c, specs, data, c2);
    });
    const auto predicted = predicted_volume(TrainerKind::DomainParallel,
                                            specs, cfg.batch, p, 1);
    EXPECT_EQ(measured.p2p_bytes, predicted.p2p_bytes) << "p=" << p;
    EXPECT_EQ(measured.allgather_bytes, predicted.allgather_bytes) << "p=" << p;
    EXPECT_EQ(measured.allreduce_bytes, predicted.allreduce_bytes) << "p=" << p;
  }
}

TEST(Validation, HybridVolumes) {
  std::vector<nn::LayerSpec> specs;
  specs.push_back(nn::conv_spec("conv1", 2, 8, 8, 4, 3, 1, 1));
  specs.push_back(nn::conv_spec("conv2", 4, 8, 8, 4, 3, 1, 1));
  specs.push_back(nn::fc_spec("fc1", 4 * 8 * 8, 16));
  specs.push_back(nn::fc_spec("fc2", 16, 8, false));
  const auto data = nn::make_synthetic_dataset(2 * 8 * 8, 8, 32, 11);
  for (const auto [pr, pc] : {std::pair{2, 2}, std::pair{4, 2},
                              std::pair{2, 4}}) {
    nn::TrainConfig cfg;
    cfg.batch = 8;
    const GridShape grid{pr, pc};
    const auto measured = measure_per_iteration(
        pr * pc, [&, grid](comm::Comm& c, std::size_t iters) {
          auto c2 = cfg;
          c2.iterations = iters;
          (void)train_hybrid(c, grid, specs, data, c2);
        });
    const auto predicted =
        predicted_volume(TrainerKind::Hybrid, specs, cfg.batch, pr, pc);
    EXPECT_EQ(measured.p2p_bytes, predicted.p2p_bytes)
        << "grid " << pr << "x" << pc;
    EXPECT_EQ(measured.allgather_bytes, predicted.allgather_bytes)
        << "grid " << pr << "x" << pc;
    EXPECT_EQ(measured.allreduce_bytes, predicted.allreduce_bytes)
        << "grid " << pr << "x" << pc;
  }
}

TEST(Validation, PredictionMatchesPaperBandwidthTerm) {
  // Sanity link to the α–β model: for divisible sizes, the predicted batch-
  // parallel bytes equal P · 2(P−1)/P · Σ|W| · 4 — the Eq. 4 bandwidth words
  // per process times P processes times 4 bytes.
  const auto specs = nn::mlp_spec({16, 32, 8});
  const int p = 4;
  const auto t =
      predicted_volume(TrainerKind::BatchParallel, specs, 16, 1, p);
  const double total_w = 16 * 32 + 32 * 8;
  EXPECT_DOUBLE_EQ(static_cast<double>(t.allreduce_bytes),
                   p * 2.0 * (p - 1) / p * total_w * 4.0);
}

}  // namespace
}  // namespace mbd::parallel
