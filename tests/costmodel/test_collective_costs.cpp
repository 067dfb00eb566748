#include "mbd/costmodel/collective_costs.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mbd/comm/rounds.hpp"

namespace mbd::costmodel {
namespace {

TEST(CeilLog2, Values) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_EQ(ceil_log2(512), 9);
  EXPECT_EQ(ceil_log2(513), 10);
}

TEST(AllGatherCost, PaperFormula) {
  // α⌈log₂P⌉ + β·(P−1)/P·n with Table 1 parameters.
  const auto m = MachineModel::cori_knl();
  const auto c = allgather_cost(m, 8, 1000.0);
  EXPECT_DOUBLE_EQ(c.latency, 3.0 * 2e-6);
  EXPECT_DOUBLE_EQ(c.bandwidth, m.word_time() * 1000.0 * 7.0 / 8.0);
}

TEST(AllGatherCost, SingleProcessIsFree) {
  const auto m = MachineModel::cori_knl();
  EXPECT_DOUBLE_EQ(allgather_cost(m, 1, 1e9).total(), 0.0);
}

TEST(AllReduceCost, PaperFactorOfTwo) {
  const auto m = MachineModel::cori_knl();
  const auto c = allreduce_cost(m, 16, 500.0);
  EXPECT_DOUBLE_EQ(c.latency, 2.0 * 4.0 * 2e-6);
  EXPECT_DOUBLE_EQ(c.bandwidth, 2.0 * m.word_time() * 500.0 * 15.0 / 16.0);
}

TEST(AllReduceCost, BandwidthNearlyPIndependentForLargeP) {
  // Paper §2.2: "for P ≫ 1 the bandwidth costs are independent of P".
  const auto m = MachineModel::cori_knl();
  const double b64 = allreduce_cost(m, 64, 1e6).bandwidth;
  const double b4096 = allreduce_cost(m, 4096, 1e6).bandwidth;
  EXPECT_NEAR(b4096 / b64, 1.0, 0.02);
}

TEST(AllReduceCost, ExactRingLatencyMode) {
  const auto m = MachineModel::cori_knl();
  const auto paper = allreduce_cost(m, 32, 100.0, LatencyMode::PaperLog);
  const auto exact = allreduce_cost(m, 32, 100.0, LatencyMode::AlgorithmExact);
  EXPECT_DOUBLE_EQ(paper.latency, 2.0 * 5.0 * m.alpha);
  EXPECT_DOUBLE_EQ(exact.latency, 2.0 * 31.0 * m.alpha);
  EXPECT_DOUBLE_EQ(paper.bandwidth, exact.bandwidth);
}

TEST(HaloCost, SingleMessage) {
  const auto m = MachineModel::cori_knl();
  const auto c = halo_cost(m, 250.0);
  EXPECT_DOUBLE_EQ(c.latency, m.alpha);
  EXPECT_DOUBLE_EQ(c.bandwidth, m.word_time() * 250.0);
}

TEST(CostBreakdown, Arithmetic) {
  CostBreakdown a{1.0, 2.0}, b{0.5, 0.25};
  const auto c = a + b;
  EXPECT_DOUBLE_EQ(c.latency, 1.5);
  EXPECT_DOUBLE_EQ(c.bandwidth, 2.25);
  EXPECT_DOUBLE_EQ(c.total(), 3.75);
  EXPECT_DOUBLE_EQ(a.scaled(2.0).bandwidth, 4.0);
}

// The exact counts the cost model folds out of the executed round programs
// (comm::send_words over comm::*_rounds), checked against literals.

double bruck_words_per_rank(int p, std::uint64_t block_words) {
  return static_cast<double>(comm::send_words(
      comm::allgather_rounds(comm::AllGatherAlgo::Bruck, p, 0),
      std::vector<std::uint64_t>(static_cast<std::size_t>(p), block_words)));
}

double ring_allreduce_words_per_rank(int p, std::uint64_t n, int rank) {
  const auto pp = static_cast<std::uint64_t>(p);
  std::vector<std::uint64_t> blocks(static_cast<std::size_t>(p));
  for (std::uint64_t b = 0; b < pp; ++b)
    blocks[b] = n * (b + 1) / pp - n * b / pp;
  return static_cast<double>(comm::send_words(
      comm::allreduce_rounds(comm::AllReduceAlgo::Ring, p, rank), blocks));
}

double ring_allreduce_words_total(int p, std::uint64_t n) {
  double total = 0.0;
  for (int r = 0; r < p; ++r) total += ring_allreduce_words_per_rank(p, n, r);
  return total;
}

std::size_t ring_allreduce_messages_per_rank(int p) {
  return comm::allreduce_rounds(comm::AllReduceAlgo::Ring, p, 0).rounds.size();
}

std::size_t bruck_messages_per_rank(int p) {
  return comm::allgather_rounds(comm::AllGatherAlgo::Bruck, p, 0).rounds.size();
}

TEST(ExactCounts, BruckWordsEqualPMinus1Blocks) {
  for (int p : {2, 3, 5, 8, 16}) {
    EXPECT_DOUBLE_EQ(bruck_words_per_rank(p, 10),
                     static_cast<double>((p - 1) * 10));
  }
}

TEST(ExactCounts, RingAllReduceDivisibleCase) {
  // n divisible by p: every rank sends exactly 2n(p−1)/p words.
  for (int r = 0; r < 4; ++r)
    EXPECT_DOUBLE_EQ(ring_allreduce_words_per_rank(4, 400, r), 600.0);
  EXPECT_DOUBLE_EQ(ring_allreduce_words_total(4, 400), 2400.0);
}

TEST(ExactCounts, RingAllReduceUnevenTotalConserved) {
  // n not divisible: per-rank counts vary but the total equals
  // 2·(sum of all blocks sent) = 2·(p−1)·n.
  const int p = 4;
  const std::uint64_t n = 403;
  EXPECT_DOUBLE_EQ(ring_allreduce_words_total(p, n),
                   2.0 * static_cast<double>((p - 1) * n));
}

TEST(ExactCounts, MessagesPerRank) {
  EXPECT_EQ(ring_allreduce_messages_per_rank(8), 14u);
  EXPECT_EQ(ring_allreduce_messages_per_rank(1), 0u);
  EXPECT_EQ(bruck_messages_per_rank(8), 3u);
  EXPECT_EQ(bruck_messages_per_rank(5), 3u);
}

}  // namespace
}  // namespace mbd::costmodel
