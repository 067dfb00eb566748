// Engine-level sweeps: every trainer runs through the shared LayerEngine in
// both reduce modes, over uneven partitions (P ∤ d_out, Pc ∤ B, uneven
// height slabs). For each trainer the two modes must produce bitwise-equal
// loss trajectories and parameters (the nonblocking ring is the blocking
// ring, resumable), identical per-iteration traffic in every class, and
// exactly the byte counts the cost model predicts (Σ over ranks of
// costmodel::trainer_rank_volume). Finally, a traced 1.5D run is replayed
// under the α–β machine model to show that Overlapped mode actually hides
// reduction traffic behind annotated GEMM compute (smaller makespan, less
// recv wait).
#include "mbd/parallel/layer_engine.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <utility>
#include <vector>

#include "mbd/costmodel/machine.hpp"
#include "mbd/costmodel/replay.hpp"
#include "mbd/nn/models.hpp"
#include "mbd/parallel/batch_parallel.hpp"
#include "mbd/parallel/domain_parallel.hpp"
#include "mbd/parallel/hybrid.hpp"
#include "mbd/parallel/integrated.hpp"
#include "mbd/parallel/mixed_grid.hpp"
#include "mbd/parallel/model_parallel.hpp"
#include "mbd/parallel/pipeline.hpp"
#include "parallel_test_util.hpp"

namespace mbd::parallel {
namespace {

using costmodel::TrainerKind;
using testing::expect_losses_close;
using testing::expect_params_close;
using testing::predicted_volume;
using testing::run_reference;

struct ModeRun {
  DistResult res;                 // 3-iteration run
  comm::StatsSnapshot one, three; // total traffic after 1 and 3 iterations
};

/// Per-iteration byte/message delta of one traffic class, with setup
/// traffic (splits, parameter assembly) factored out.
comm::TrafficEntry per_iteration(const ModeRun& m, comm::Coll c) {
  return {(m.three[c].bytes - m.one[c].bytes) / 2,
          (m.three[c].messages - m.one[c].messages) / 2};
}

/// Runs `fn(comm, iterations, mode)` on `p` ranks for 1 and 3 iterations
/// with collective validation on; checks all ranks agree bitwise.
template <typename Fn>
ModeRun run_mode(int p, ReduceMode mode, const Fn& fn) {
  ModeRun m;
  auto run = [&](std::size_t iters) {
    comm::World world(p);
    world.enable_validation();
    std::vector<DistResult> results(static_cast<std::size_t>(p));
    std::mutex mu;
    world.run([&](comm::Comm& c) {
      DistResult r = fn(c, iters, mode);
      std::lock_guard lock(mu);
      results[static_cast<std::size_t>(c.rank())] = std::move(r);
    });
    for (int r = 1; r < p; ++r)
      EXPECT_EQ(results[0].losses, results[static_cast<std::size_t>(r)].losses)
          << "rank " << r << " diverged";
    m.res = std::move(results[0]);
    return world.stats();
  };
  m.one = run(1);
  m.three = run(3);
  return m;
}

/// The cross-mode contract: bitwise-equal trajectories and parameters,
/// identical traffic in every class (bytes AND message counts).
void expect_modes_equivalent(const ModeRun& blocking, const ModeRun& overlapped) {
  EXPECT_EQ(blocking.res.losses, overlapped.res.losses)
      << "overlapped mode changed the loss trajectory";
  EXPECT_EQ(blocking.res.params, overlapped.res.params)
      << "overlapped mode changed the final weights";
  for (int ci = 0; ci < static_cast<int>(comm::Coll::kCount); ++ci) {
    const auto c = static_cast<comm::Coll>(ci);
    const auto b = per_iteration(blocking, c);
    const auto o = per_iteration(overlapped, c);
    EXPECT_EQ(b.bytes, o.bytes) << "class " << comm::coll_name(c);
    EXPECT_EQ(b.messages, o.messages) << "class " << comm::coll_name(c);
  }
}

void expect_predicted(const ModeRun& m,
                      const costmodel::RankVolume& predicted,
                      const char* label) {
  EXPECT_EQ(per_iteration(m, comm::Coll::AllReduce).bytes,
            predicted.allreduce_bytes)
      << label;
  EXPECT_EQ(per_iteration(m, comm::Coll::AllGather).bytes,
            predicted.allgather_bytes)
      << label;
  EXPECT_EQ(per_iteration(m, comm::Coll::PointToPoint).bytes,
            predicted.p2p_bytes)
      << label;
}

nn::TrainConfig config(std::size_t batch, std::size_t iters) {
  nn::TrainConfig cfg;
  cfg.batch = batch;
  cfg.iterations = iters;
  cfg.momentum = 0.9f;
  return cfg;
}

TEST(LayerEngine, ModelParallelBothModesUnevenRows) {
  const auto specs = nn::mlp_spec({10, 19, 7});  // 3 ∤ 19, 3 ∤ 7
  const auto data = nn::make_synthetic_dataset(10, 7, 48, 5);
  const auto cfg = config(12, 3);
  const int p = 3;
  auto fn = [&](comm::Comm& c, std::size_t iters, ReduceMode mode) {
    auto c2 = cfg;
    c2.iterations = iters;
    return train_model_parallel(c, specs, data, c2, 42, mode);
  };
  const ModeRun blocking = run_mode(p, ReduceMode::Blocking, fn);
  const ModeRun overlapped = run_mode(p, ReduceMode::Overlapped, fn);
  expect_modes_equivalent(blocking, overlapped);
  const auto predicted =
      predicted_volume(TrainerKind::ModelParallel, specs, cfg.batch, p, 1);
  expect_predicted(blocking, predicted, "blocking");
  expect_predicted(overlapped, predicted, "overlapped");
  const auto ref = run_reference(specs, data, cfg);
  expect_losses_close(blocking.res.losses, ref.losses);
  expect_params_close(blocking.res.params, ref.params);
}

TEST(LayerEngine, BatchParallelBothModesUnevenColumns) {
  const auto specs = nn::mlp_spec({12, 16, 4});
  const auto data = nn::make_synthetic_dataset(12, 4, 64, 3);
  const auto cfg = config(10, 3);  // 3 ∤ 10
  const int p = 3;
  auto fn = [&](comm::Comm& c, std::size_t iters, ReduceMode mode) {
    auto c2 = cfg;
    c2.iterations = iters;
    return train_batch_parallel(c, specs, data, c2, {}, mode);
  };
  const ModeRun blocking = run_mode(p, ReduceMode::Blocking, fn);
  const ModeRun overlapped = run_mode(p, ReduceMode::Overlapped, fn);
  expect_modes_equivalent(blocking, overlapped);
  const auto predicted =
      predicted_volume(TrainerKind::BatchParallel, specs, cfg.batch, 1, p);
  expect_predicted(blocking, predicted, "blocking");
  expect_predicted(overlapped, predicted, "overlapped");
  const auto ref = run_reference(specs, data, cfg);
  expect_losses_close(blocking.res.losses, ref.losses);
  expect_params_close(blocking.res.params, ref.params);
}

TEST(LayerEngine, Integrated15DBothModesUnevenGrids) {
  const auto specs = nn::mlp_spec({10, 19, 12});  // 3 ∤ 19
  const auto data = nn::make_synthetic_dataset(10, 12, 48, 7);
  const auto ref = run_reference(specs, data, config(11, 3));
  for (const auto [pr, pc] : {std::pair{3, 2}, std::pair{2, 3}}) {
    const auto cfg = config(11, 3);  // pc ∤ 11 either way
    const GridShape grid{pr, pc};
    auto fn = [&, grid](comm::Comm& c, std::size_t iters, ReduceMode mode) {
      auto c2 = cfg;
      c2.iterations = iters;
      return train_integrated_15d(c, grid, specs, data, c2, 42, mode);
    };
    const ModeRun blocking = run_mode(pr * pc, ReduceMode::Blocking, fn);
    const ModeRun overlapped = run_mode(pr * pc, ReduceMode::Overlapped, fn);
    expect_modes_equivalent(blocking, overlapped);
    const auto predicted =
        predicted_volume(TrainerKind::Integrated15D, specs, cfg.batch, pr, pc);
    expect_predicted(blocking, predicted, "blocking");
    expect_predicted(overlapped, predicted, "overlapped");
    expect_losses_close(blocking.res.losses, ref.losses);
    expect_params_close(blocking.res.params, ref.params);
  }
}

std::vector<nn::LayerSpec> conv_fc_specs() {
  std::vector<nn::LayerSpec> specs;
  specs.push_back(nn::conv_spec("conv1", 2, 8, 8, 4, 3, 1, 1));
  specs.push_back(nn::conv_spec("conv2", 4, 8, 8, 4, 3, 1, 1));
  specs.push_back(nn::fc_spec("fc1", 4 * 8 * 8, 16));
  specs.push_back(nn::fc_spec("fc2", 16, 4, false));
  return specs;
}

TEST(LayerEngine, DomainParallelBothModesUnevenSlabs) {
  const auto specs = conv_fc_specs();
  const auto data = nn::make_synthetic_dataset(2 * 8 * 8, 4, 32, 9);
  const auto cfg = config(8, 3);
  const int p = 3;  // 3 ∤ 8 image rows: uneven slabs
  auto fn = [&](comm::Comm& c, std::size_t iters, ReduceMode mode) {
    auto c2 = cfg;
    c2.iterations = iters;
    return train_domain_parallel(c, specs, data, c2, 42,
                                 /*overlap_halo=*/false, mode);
  };
  const ModeRun blocking = run_mode(p, ReduceMode::Blocking, fn);
  const ModeRun overlapped = run_mode(p, ReduceMode::Overlapped, fn);
  expect_modes_equivalent(blocking, overlapped);
  const auto predicted =
      predicted_volume(TrainerKind::DomainParallel, specs, cfg.batch, p, 1);
  expect_predicted(blocking, predicted, "blocking");
  expect_predicted(overlapped, predicted, "overlapped");
  const auto ref = run_reference(specs, data, cfg);
  expect_losses_close(blocking.res.losses, ref.losses);
  expect_params_close(blocking.res.params, ref.params);
}

TEST(LayerEngine, HybridBothModesUnevenBatch) {
  const auto specs = conv_fc_specs();
  const auto data = nn::make_synthetic_dataset(2 * 8 * 8, 4, 32, 9);
  const auto cfg = config(7, 3);  // 2 ∤ 7 batch columns
  const GridShape grid{2, 2};
  auto fn = [&](comm::Comm& c, std::size_t iters, ReduceMode mode) {
    auto c2 = cfg;
    c2.iterations = iters;
    return train_hybrid(c, grid, specs, data, c2, 42,
                        /*overlap_halo=*/false, mode);
  };
  const ModeRun blocking = run_mode(4, ReduceMode::Blocking, fn);
  const ModeRun overlapped = run_mode(4, ReduceMode::Overlapped, fn);
  expect_modes_equivalent(blocking, overlapped);
  const auto predicted = predicted_volume(TrainerKind::Hybrid, specs,
                                          cfg.batch, grid.pr, grid.pc);
  expect_predicted(blocking, predicted, "blocking");
  expect_predicted(overlapped, predicted, "overlapped");
  const auto ref = run_reference(specs, data, cfg);
  expect_losses_close(blocking.res.losses, ref.losses);
  expect_params_close(blocking.res.params, ref.params);
}

TEST(LayerEngine, MixedGridBothModesUnevenBatch) {
  const auto specs = conv_fc_specs();
  const auto data = nn::make_synthetic_dataset(2 * 8 * 8, 4, 32, 9);
  const auto cfg = config(7, 3);  // 4 ∤ 7 conv blocks, 2 ∤ 7 group columns
  const GridShape grid{2, 2};
  auto fn = [&](comm::Comm& c, std::size_t iters, ReduceMode mode) {
    auto c2 = cfg;
    c2.iterations = iters;
    return train_mixed_grid(c, grid, specs, data, c2, 42, mode);
  };
  const ModeRun blocking = run_mode(4, ReduceMode::Blocking, fn);
  const ModeRun overlapped = run_mode(4, ReduceMode::Overlapped, fn);
  expect_modes_equivalent(blocking, overlapped);
  const auto predicted = predicted_volume(TrainerKind::MixedGrid, specs,
                                          cfg.batch, grid.pr, grid.pc);
  expect_predicted(blocking, predicted, "blocking");
  expect_predicted(overlapped, predicted, "overlapped");
  const auto ref = run_reference(specs, data, cfg);
  expect_losses_close(blocking.res.losses, ref.losses);
  expect_params_close(blocking.res.params, ref.params);
}

TEST(LayerEngine, PipelineBothModesUnevenStagesAndMicrobatches) {
  // Five layers over four stages (one rank owns two) and 3 ∤ 10 batch
  // columns, so both the layer blocks and the microbatch slices are uneven.
  const auto specs = nn::mlp_spec({12, 21, 17, 13, 11, 10});
  const auto data = nn::make_synthetic_dataset(12, 10, 48, 5);
  const auto cfg = config(10, 3);
  const int p = 4;
  const std::size_t microbatches = 3;
  auto fn = [&](comm::Comm& c, std::size_t iters, ReduceMode mode) {
    auto c2 = cfg;
    c2.iterations = iters;
    return train_pipeline(c, specs, data, c2, microbatches, 42, mode);
  };
  const ModeRun blocking = run_mode(p, ReduceMode::Blocking, fn);
  const ModeRun overlapped = run_mode(p, ReduceMode::Overlapped, fn);
  expect_modes_equivalent(blocking, overlapped);
  const auto predicted =
      predicted_volume(TrainerKind::Pipeline, specs, cfg.batch, 1, p);
  EXPECT_EQ(predicted.allreduce_bytes, 0u);
  EXPECT_EQ(predicted.allgather_bytes, 0u);
  expect_predicted(blocking, predicted, "blocking");
  expect_predicted(overlapped, predicted, "overlapped");
  const auto ref = run_reference(specs, data, cfg);
  expect_losses_close(blocking.res.losses, ref.losses);
  expect_params_close(blocking.res.params, ref.params);
}

TEST(LayerEngine, PipelineTrafficIndependentOfMicrobatchCount) {
  // The 1F1B boundary traffic is B columns per boundary per iteration no
  // matter how B is sliced; only the message count grows with M.
  const auto specs = nn::mlp_spec({12, 21, 17, 13, 11, 10});
  const auto data = nn::make_synthetic_dataset(12, 10, 48, 5);
  const auto cfg = config(10, 3);
  const int p = 4;
  const auto run_m = [&](std::size_t microbatches) {
    return run_mode(p, ReduceMode::Blocking,
                    [&](comm::Comm& c, std::size_t iters, ReduceMode mode) {
                      auto c2 = cfg;
                      c2.iterations = iters;
                      return train_pipeline(c, specs, data, c2, microbatches,
                                            42, mode);
                    });
  };
  const ModeRun m1 = run_m(1);
  const ModeRun m5 = run_m(5);
  const auto predicted =
      predicted_volume(TrainerKind::Pipeline, specs, cfg.batch, 1, p);
  expect_predicted(m1, predicted, "one microbatch");
  expect_predicted(m5, predicted, "five microbatches");
  EXPECT_EQ(per_iteration(m5, comm::Coll::PointToPoint).messages,
            5 * per_iteration(m1, comm::Coll::PointToPoint).messages);
  // Same optimisation problem, different gradient-accumulation order.
  expect_losses_close(m1.res.losses, m5.res.losses);
  expect_params_close(m1.res.params, m5.res.params);
}

/// Records a traced 1.5D run with modeled GEMM times in the given mode.
comm::Trace trace_integrated(ReduceMode mode, double seconds_per_flop) {
  const auto specs = nn::mlp_spec({8, 30, 6});
  const auto data = nn::make_synthetic_dataset(8, 6, 32, 11);
  nn::TrainConfig cfg;
  cfg.batch = 8;
  cfg.iterations = 2;
  const GridShape grid{2, 2};
  comm::World world(4);
  world.enable_validation();
  world.enable_tracing();
  world.run([&](comm::Comm& c) {
    (void)train_integrated_15d(c, grid, specs, data, cfg, 42, mode,
                               seconds_per_flop);
  });
  return world.trace();
}

TEST(LayerEngine, OverlappedModeHidesReductionsInReplay) {
  // Replayed under in-flight transfer semantics (the transport the paper's
  // overlap factor assumes): the blocking schedule exposes each reduction's
  // wire time as recv wait, while the overlapped schedule initiates the ∆X
  // reduce before the ∆W GEMM (≈100 µs of modeled compute, far more than
  // the ~0.1 µs transfers) and completes it behind that compute.
  const double spf = 1e-7;
  const comm::Trace blocking = trace_integrated(ReduceMode::Blocking, spf);
  const comm::Trace overlapped =
      trace_integrated(ReduceMode::Overlapped, spf);

  // Same work in both schedules: identical annotated compute and bytes.
  const auto m = costmodel::MachineModel::cori_knl();
  const costmodel::ReplayOptions inflight{.inflight_transfer = true};
  const auto rb = costmodel::replay_trace(blocking, m, inflight);
  const auto ro = costmodel::replay_trace(overlapped, m, inflight);
  EXPECT_GT(rb.total_compute, 0.0);
  EXPECT_NEAR(rb.total_compute, ro.total_compute, 1e-12);
  EXPECT_NEAR(rb.total_send_busy, ro.total_send_busy, 1e-12);

  // The overlap is real: reductions complete behind GEMMs.
  EXPECT_LT(ro.total_recv_wait, rb.total_recv_wait);
  EXPECT_LT(ro.makespan, rb.makespan);
}

}  // namespace
}  // namespace mbd::parallel
