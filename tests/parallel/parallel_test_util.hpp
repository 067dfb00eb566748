// Shared fixture pieces for the distributed-trainer equivalence tests.
#pragma once

#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "mbd/comm/world.hpp"
#include "mbd/costmodel/volumes.hpp"
#include "mbd/nn/models.hpp"
#include "mbd/nn/network.hpp"
#include "mbd/nn/trainer.hpp"
#include "mbd/parallel/common.hpp"

namespace mbd::parallel::testing {

/// Sequential reference: same specs, same seed, same data, same schedule.
struct Reference {
  std::vector<double> losses;
  std::vector<float> params;
};

inline Reference run_reference(const std::vector<nn::LayerSpec>& specs,
                               const nn::Dataset& data,
                               const nn::TrainConfig& cfg,
                               std::uint64_t seed = 42) {
  nn::Network net = nn::build_network(specs, {.seed = seed});
  Reference ref;
  ref.losses = nn::train_sgd(net, data, cfg);
  ref.params = net.save_params();
  return ref;
}

/// Runs `fn` on a world of `p` ranks, collects every rank's DistResult, and
/// checks the ranks agree with each other bit-for-bit on losses. Collective
/// validation is always on — every distributed trainer doubles as a
/// validator integration test in every build type.
template <typename Fn>
DistResult run_distributed(int p, Fn fn) {
  comm::World world(p);
  world.enable_validation();
  std::vector<DistResult> results(static_cast<std::size_t>(p));
  std::mutex mu;
  world.run([&](comm::Comm& c) {
    DistResult r = fn(c);
    std::lock_guard lock(mu);
    results[static_cast<std::size_t>(c.rank())] = std::move(r);
  });
  for (int r = 1; r < p; ++r) {
    EXPECT_EQ(results[0].losses, results[static_cast<std::size_t>(r)].losses)
        << "rank " << r << " diverged in loss";
    EXPECT_EQ(results[0].params.size(),
              results[static_cast<std::size_t>(r)].params.size());
  }
  return results[0];
}

/// Loss trajectories must match within float reduction-reordering noise.
inline void expect_losses_close(const std::vector<double>& a,
                                const std::vector<double>& b,
                                double tol = 2e-4) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], b[i], tol * (1.0 + std::abs(a[i]))) << "iteration " << i;
}

/// Final parameters must match within accumulated float noise.
inline void expect_params_close(const std::vector<float>& a,
                                const std::vector<float>& b,
                                float tol = 5e-4f) {
  ASSERT_EQ(a.size(), b.size());
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  EXPECT_LE(worst, tol);
}

/// The cost model's bytes per iteration, summed over all ranks of the
/// pr × pc grid (pure trainers: pr·pc = P).
inline costmodel::RankVolume predicted_volume(
    costmodel::TrainerKind kind, const std::vector<nn::LayerSpec>& specs,
    std::size_t batch, int pr, int pc) {
  costmodel::RankVolume total;
  for (int r = 0; r < pr * pc; ++r)
    total += costmodel::trainer_rank_volume(kind, specs, batch, pr, pc, r);
  return total;
}

}  // namespace mbd::parallel::testing
