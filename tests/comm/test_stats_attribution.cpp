// Stats attribution under the nonblocking schedule and fault injection:
// a collective's logical volume is counted exactly once at send time —
// nonblocking completion never re-counts it, and retransmissions recovered
// by the fault fabric accrue to the injector's distinct retransmit counter,
// never to the collective's StatsCounters entry. This is what keeps the
// measured-vs-predicted α–β validation meaningful under Overlapped mode and
// under injected faults.
#include <gtest/gtest.h>

#include <chrono>
#include <span>
#include <vector>

#include "comm/closed_forms.hpp"
#include "mbd/comm/world.hpp"
#include "mbd/nn/models.hpp"
#include "mbd/parallel/batch_parallel.hpp"

namespace mbd::comm {
namespace {

using namespace std::chrono_literals;

TEST(StatsAttribution, NonblockingAllReduceCountsBytesExactlyOnce) {
  for (int p : {2, 3, 4}) {
    const std::size_t n = 96;
    StatsSnapshot blocking, nonblocking;
    {
      World w(p);
      w.run([n](Comm& c) {
        std::vector<float> v(n, 1.0f);
        c.allreduce(std::span<float>(v), std::plus<float>{},
                    AllReduceAlgo::Ring);
      });
      blocking = w.stats();
    }
    {
      World w(p);
      w.run([n](Comm& c) {
        std::vector<float> v(n, 1.0f);
        c.iallreduce(std::span<float>(v)).wait();
      });
      nonblocking = w.stats();
    }
    // Identical schedule => identical attribution, and both match the
    // closed-form ring volume (wait/test drains must not double count).
    EXPECT_EQ(nonblocking[Coll::AllReduce].bytes,
              blocking[Coll::AllReduce].bytes)
        << "p=" << p;
    EXPECT_EQ(nonblocking[Coll::AllReduce].messages,
              blocking[Coll::AllReduce].messages)
        << "p=" << p;
    std::uint64_t words = 0;
    for (int r = 0; r < p; ++r)
      words += closed_form::ring_allreduce_words(p, n, r);
    EXPECT_EQ(nonblocking[Coll::AllReduce].bytes, words * sizeof(float))
        << "p=" << p;
  }
}

TEST(StatsAttribution, RetransmitBytesAccrueToInjectorNotStats) {
  // Ten 1-int sends; the 3rd is dropped and recovered by the receiver's
  // timed retry. The P2P byte count must be what the *algorithm* sent —
  // 10 messages, 40 bytes — as if no fault had fired; the retransmitted
  // payload shows up only on the injector's dedicated counters.
  StatsSnapshot clean;
  {
    World w(2);
    w.run([](Comm& c) {
      if (c.rank() == 0) {
        for (int i = 0; i < 10; ++i)
          c.send(1, std::span<const int>(&i, 1), /*tag=*/3);
      } else {
        for (int i = 0; i < 10; ++i) (void)c.recv<int>(0, /*tag=*/3);
      }
    });
    clean = w.stats();
  }

  World w(2);
  FaultPlan plan;
  plan.actions.push_back(
      {.kind = FaultKind::DropMessage, .rank = 0, .op_index = 3});
  w.install_faults(plan, {.retry_interval = 10ms});
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i)
        c.send(1, std::span<const int>(&i, 1), /*tag=*/3);
    } else {
      for (int i = 0; i < 10; ++i) (void)c.recv<int>(0, /*tag=*/3);
    }
  });
  const auto faulted = w.stats();
  EXPECT_EQ(faulted[Coll::PointToPoint].bytes,
            clean[Coll::PointToPoint].bytes);
  EXPECT_EQ(faulted[Coll::PointToPoint].messages,
            clean[Coll::PointToPoint].messages);
  const FaultInjector& fi = *w.fault_injector();
  EXPECT_EQ(fi.retransmit_count(), 1U);
  EXPECT_EQ(fi.retransmit_bytes(), sizeof(int));
  EXPECT_EQ(faulted.total_bytes(), clean.total_bytes());
}

TEST(StatsAttribution, OverlappedTrainingUnderDropKeepsLogicalVolume) {
  const auto specs = nn::mlp_spec({10, 14, 6});
  const auto data = nn::make_synthetic_dataset(10, 6, 16, 3);
  nn::TrainConfig cfg;
  cfg.batch = 8;
  cfg.iterations = 2;

  const auto run = [&](bool with_fault) {
    World w(2);
    if (with_fault) {
      FaultPlan plan;
      plan.actions.push_back(
          {.kind = FaultKind::DropMessage, .rank = 0, .op_index = 4});
      w.install_faults(plan, {.retry_interval = 10ms});
    }
    parallel::DistResult res;
    w.run([&](Comm& c) {
      auto r = parallel::train_batch_parallel(c, specs, data, cfg, {},
                                              parallel::ReduceMode::Overlapped);
      if (c.rank() == 0) res = std::move(r);  // one writer: no data race
    });
    struct Out {
      StatsSnapshot stats;
      std::vector<double> losses;
      std::uint64_t retransmit_bytes;
    } out;
    out.stats = w.stats();
    out.losses = res.losses;
    out.retransmit_bytes =
        with_fault ? w.fault_injector()->retransmit_bytes() : 0;
    return out;
  };

  const auto clean = run(false);
  const auto faulted = run(true);
  // The drop changed nothing the experiment can see: bitwise-equal losses,
  // identical per-collective attribution.
  EXPECT_EQ(faulted.losses, clean.losses);
  EXPECT_EQ(faulted.stats[Coll::AllReduce].bytes,
            clean.stats[Coll::AllReduce].bytes);
  EXPECT_EQ(faulted.stats[Coll::AllReduce].messages,
            clean.stats[Coll::AllReduce].messages);
  EXPECT_EQ(faulted.stats.total_bytes(), clean.stats.total_bytes());
  // ... while the recovery traffic is visible where it belongs.
  EXPECT_GT(faulted.retransmit_bytes, 0U);
}

}  // namespace
}  // namespace mbd::comm
