// Instrumentation correctness: the byte/message counters must match the
// closed-form counts of the implemented algorithms — the foundation of the
// measured-vs-predicted validation of the paper's cost model.
#include <gtest/gtest.h>

#include <vector>

#include "comm/closed_forms.hpp"
#include "mbd/comm/world.hpp"

namespace mbd::comm {
namespace {

class StatsSweep : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(StatsSweep, RingAllReduceBytesMatchClosedForm) {
  const auto [p, n] = GetParam();
  World world(p);
  world.run([nn = n](Comm& c) {
    std::vector<float> v(nn, 1.0f);
    c.allreduce(std::span<float>(v), std::plus<float>{}, AllReduceAlgo::Ring);
  });
  const auto s = world.stats();
  std::uint64_t expect_words = 0;
  for (int r = 0; r < p; ++r)
    expect_words += closed_form::ring_allreduce_words(p, n, r);
  EXPECT_EQ(s[Coll::AllReduce].bytes, expect_words * sizeof(float));
  EXPECT_EQ(s[Coll::AllReduce].messages,
            static_cast<std::uint64_t>(p) *
                closed_form::ring_allreduce_messages(p));
}

TEST_P(StatsSweep, BruckAllGatherBytesMatchClosedForm) {
  const auto [p, n] = GetParam();
  World world(p);
  world.run([nn = n](Comm& c) {
    std::vector<float> v(nn, 2.0f);
    (void)c.allgather(std::span<const float>(v), AllGatherAlgo::Bruck);
  });
  const auto s = world.stats();
  const std::uint64_t per_rank = closed_form::bruck_words(p, n);
  EXPECT_EQ(s[Coll::AllGather].bytes,
            per_rank * static_cast<std::uint64_t>(p) * sizeof(float));
  EXPECT_EQ(s[Coll::AllGather].messages,
            static_cast<std::uint64_t>(p) * closed_form::bruck_messages(p));
}

INSTANTIATE_TEST_SUITE_P(
    Counts, StatsSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 8),
                       ::testing::Values<std::size_t>(8, 30, 128)),
    [](const auto& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Stats, RabenseifnerMatchesRingBandwidth) {
  // Rabenseifner is bandwidth-equivalent to the ring (2(P−1)/P·n words per
  // process) for power-of-two P and divisible n, with only 2·log₂P latency
  // steps per rank.
  const int p = 8;
  const std::size_t n = 1 << 12;
  World ring_world(p), rab_world(p);
  ring_world.run([n](Comm& c) {
    std::vector<float> v(n, 1.0f);
    c.allreduce(std::span<float>(v), std::plus<float>{}, AllReduceAlgo::Ring);
  });
  rab_world.run([n](Comm& c) {
    std::vector<float> v(n, 1.0f);
    c.allreduce(std::span<float>(v), std::plus<float>{},
                AllReduceAlgo::Rabenseifner);
  });
  EXPECT_EQ(ring_world.stats()[Coll::AllReduce].bytes,
            rab_world.stats()[Coll::AllReduce].bytes);
  EXPECT_EQ(rab_world.stats()[Coll::AllReduce].messages,
            static_cast<std::uint64_t>(p) * 2 * 3);  // 2·log₂8 per rank
  EXPECT_EQ(ring_world.stats()[Coll::AllReduce].messages,
            static_cast<std::uint64_t>(p) * 2 * (p - 1));
}

TEST(Stats, RecursiveDoublingTradesBandwidthForLatency) {
  // Recursive doubling: n·log₂P words per process — more than the ring's
  // 2(P−1)/P·n for P > 2, fewer messages.
  const int p = 8;
  const std::size_t n = 1 << 12;
  World rd_world(p), ring_world(p);
  rd_world.run([n](Comm& c) {
    std::vector<float> v(n, 1.0f);
    c.allreduce(std::span<float>(v), std::plus<float>{},
                AllReduceAlgo::RecursiveDoubling);
  });
  ring_world.run([n](Comm& c) {
    std::vector<float> v(n, 1.0f);
    c.allreduce(std::span<float>(v), std::plus<float>{}, AllReduceAlgo::Ring);
  });
  EXPECT_EQ(rd_world.stats()[Coll::AllReduce].bytes,
            static_cast<std::uint64_t>(p) * 3 * n * sizeof(float));
  EXPECT_GT(rd_world.stats()[Coll::AllReduce].bytes,
            ring_world.stats()[Coll::AllReduce].bytes);
  EXPECT_LT(rd_world.stats()[Coll::AllReduce].messages,
            ring_world.stats()[Coll::AllReduce].messages);
}

TEST(Stats, PerRankAllGatherVolumeMatchesPaperFormula) {
  // Paper: all-gather moves (P−1)/P of the full buffer per process.
  const int p = 8;
  const std::size_t block = 100;
  const auto per_rank = static_cast<double>(closed_form::bruck_words(p, block));
  EXPECT_DOUBLE_EQ(per_rank,
                   static_cast<double>(block) * (p - 1));  // = (P−1)/P · P·block
}

TEST(Stats, RingAllReduceVolumeMatchesPaperFormula) {
  // Paper: ring all-reduce moves 2·(P−1)/P · n words per process.
  const std::size_t p = 8, n = 800;  // divisible: exact equality
  const auto per_rank = static_cast<double>(
      closed_form::ring_allreduce_words(static_cast<int>(p), n, 0));
  EXPECT_DOUBLE_EQ(per_rank, 2.0 * static_cast<double>(n) *
                                 static_cast<double>(p - 1) /
                                 static_cast<double>(p));
}

TEST(Stats, ResetClearsCounters) {
  World world(2);
  world.run([](Comm& c) {
    std::vector<float> v(4, 1.0f);
    c.allreduce(std::span<float>(v));
  });
  EXPECT_GT(world.stats().total_bytes(), 0u);
  world.reset_stats();
  EXPECT_EQ(world.stats().total_bytes(), 0u);
  EXPECT_EQ(world.stats().total_messages(), 0u);
}

TEST(Stats, SnapshotSince) {
  World world(2);
  world.run([](Comm& c) {
    std::vector<float> v(4, 1.0f);
    c.allreduce(std::span<float>(v));
  });
  const auto s1 = world.stats();
  world.run([](Comm& c) {
    std::vector<float> v(4, 1.0f);
    c.allreduce(std::span<float>(v));
    c.allreduce(std::span<float>(v));
  });
  const auto s2 = world.stats();
  const auto d = s2.since(s1);
  EXPECT_EQ(d[Coll::AllReduce].bytes, 2 * s1[Coll::AllReduce].bytes);
}

TEST(Stats, TrafficClassesSeparated) {
  World world(2);
  world.run([](Comm& c) {
    std::vector<float> v(4, 1.0f);
    c.allreduce(std::span<float>(v));
    (void)c.allgather(std::span<const float>(v));
    c.barrier();
    if (c.rank() == 0) {
      c.send(1, std::span<const float>(v));
    } else {
      (void)c.recv<float>(0);
    }
  });
  const auto s = world.stats();
  EXPECT_GT(s[Coll::AllReduce].bytes, 0u);
  EXPECT_GT(s[Coll::AllGather].bytes, 0u);
  EXPECT_GT(s[Coll::Barrier].messages, 0u);
  EXPECT_EQ(s[Coll::PointToPoint].bytes, 4 * sizeof(float));
  EXPECT_EQ(s[Coll::Broadcast].bytes, 0u);
}

}  // namespace
}  // namespace mbd::comm
