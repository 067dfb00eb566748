// Boundary conditions of the comm runtime.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "mbd/comm/world.hpp"
#include "mbd/support/check.hpp"

namespace mbd::comm {
namespace {

TEST(EdgeCases, ZeroLengthMessages) {
  World world(2);
  world.run([](Comm& c) {
    std::vector<float> empty;
    if (c.rank() == 0) {
      c.send(1, std::span<const float>(empty));
    } else {
      auto got = c.recv<float>(0);
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST(EdgeCases, ZeroLengthCollectives) {
  World world(3);
  world.run([](Comm& c) {
    std::vector<float> empty;
    c.allreduce(std::span<float>(empty));
    auto g = c.allgather(std::span<const float>(empty));
    EXPECT_TRUE(g.empty());
    auto gv = c.allgatherv(std::span<const float>(empty));
    EXPECT_TRUE(gv.empty());
    c.broadcast(std::span<float>(empty), 0);
  });
}

TEST(EdgeCases, SingleElementEverywhere) {
  World world(5);
  world.run([](Comm& c) {
    std::vector<int> one{c.rank()};
    c.allreduce(std::span<int>(one));
    EXPECT_EQ(one[0], 0 + 1 + 2 + 3 + 4);
  });
}

TEST(EdgeCases, LargePayloadSurvivesTransit) {
  // 4 MiB through the mailbox fabric.
  World world(2);
  world.run([](Comm& c) {
    const std::size_t n = 1u << 20;
    if (c.rank() == 0) {
      std::vector<float> big(n);
      for (std::size_t i = 0; i < n; ++i)
        big[i] = static_cast<float>(i % 997);
      c.send(1, std::span<const float>(big));
    } else {
      auto got = c.recv<float>(0);
      ASSERT_EQ(got.size(), n);
      EXPECT_FLOAT_EQ(got[0], 0.0f);
      EXPECT_FLOAT_EQ(got[996], 996.0f);
      EXPECT_FLOAT_EQ(got[n - 1], static_cast<float>((n - 1) % 997));
    }
  });
}

TEST(EdgeCases, ManySmallMessagesInterleaved) {
  World world(4);
  world.run([](Comm& c) {
    // Every rank sends 50 tagged messages to every other rank, then drains
    // them in a different order.
    for (int peer = 0; peer < c.size(); ++peer) {
      if (peer == c.rank()) continue;
      for (int t = 0; t < 50; ++t) {
        const int v = c.rank() * 1000 + t;
        c.send(peer, std::span<const int>(&v, 1), /*tag=*/t);
      }
    }
    for (int peer = c.size() - 1; peer >= 0; --peer) {
      if (peer == c.rank()) continue;
      for (int t = 49; t >= 0; --t) {
        auto got = c.recv<int>(peer, /*tag=*/t);
        EXPECT_EQ(got[0], peer * 1000 + t);
      }
    }
  });
}

TEST(EdgeCases, NonPowerOfTwoEverywhere) {
  // Exercise the non-2^k folds of recursive doubling and Rabenseifner.
  for (int p : {3, 5, 6, 7, 9, 11}) {
    World world(p);
    world.run([pp = p](Comm& c) {
      std::vector<float> v(13, static_cast<float>(c.rank() + 1));
      c.allreduce(std::span<float>(v), std::plus<float>{},
                  AllReduceAlgo::RecursiveDoubling);
      std::vector<float> w(13, static_cast<float>(c.rank() + 1));
      c.allreduce(std::span<float>(w), std::plus<float>{},
                  AllReduceAlgo::Rabenseifner);
      const float expect = static_cast<float>(pp * (pp + 1) / 2);
      for (float x : v) EXPECT_FLOAT_EQ(x, expect);
      for (float x : w) EXPECT_FLOAT_EQ(x, expect);
    });
  }
}

TEST(EdgeCases, FoldStepRejectsShortVector) {
  // One rank passes a shorter vector than its fold partner expects. With
  // validation off nothing else catches the mismatch, so the fold step's
  // receive must check the payload size instead of reading past it.
  for (const auto algo :
       {AllReduceAlgo::RecursiveDoubling, AllReduceAlgo::Rabenseifner}) {
    for (int p : {3, 6}) {
      World world(p);
      world.disable_validation();
      EXPECT_THROW(world.run([algo](Comm& c) {
                     std::vector<float> v(c.rank() == 1 ? 2 : 1000, 1.0f);
                     c.allreduce(std::span<float>(v), std::plus<float>{},
                                 algo);
                   }),
                   mbd::Error)
          << "p=" << p << " algo=" << static_cast<int>(algo);
    }
  }
}

TEST(EdgeCases, VectorShorterThanRanks) {
  // Ring all-reduce with n < P: most blocks are empty.
  World world(8);
  world.run([](Comm& c) {
    std::vector<float> v(3, static_cast<float>(c.rank()));
    c.allreduce(std::span<float>(v));
    for (float x : v) EXPECT_FLOAT_EQ(x, 28.0f);  // Σ 0..7
  });
}

TEST(EdgeCases, ConcurrentWorldsAreIsolated) {
  // Two Worlds running interleaved collectives must not share any state
  // (mailboxes, counters, contexts).
  World a(3), b(4);
  std::thread ta([&] {
    a.run([](Comm& c) {
      for (int i = 0; i < 20; ++i) {
        std::vector<float> v{static_cast<float>(c.rank())};
        c.allreduce(std::span<float>(v));
        ASSERT_FLOAT_EQ(v[0], 3.0f);  // 0+1+2
      }
    });
  });
  std::thread tb([&] {
    b.run([](Comm& c) {
      for (int i = 0; i < 20; ++i) {
        std::vector<float> v{static_cast<float>(c.rank())};
        c.allreduce(std::span<float>(v));
        ASSERT_FLOAT_EQ(v[0], 6.0f);  // 0+1+2+3
      }
    });
  });
  ta.join();
  tb.join();
  EXPECT_NE(a.stats()[Coll::AllReduce].bytes, 0u);
  EXPECT_NE(b.stats()[Coll::AllReduce].bytes, 0u);
}

TEST(EdgeCases, CommCopiesShareTheChannel) {
  // Comm is cheap to copy; copies address the same communicator.
  World world(2);
  world.run([](Comm& c) {
    Comm copy = c;
    if (c.rank() == 0) {
      const int x = 5;
      copy.send(1, std::span<const int>(&x, 1));
    } else {
      auto got = c.recv<int>(0);
      EXPECT_EQ(got[0], 5);
    }
  });
}

TEST(EdgeCases, RepeatedWorldRuns) {
  World world(3);
  for (int round = 0; round < 5; ++round) {
    world.run([round](Comm& c) {
      std::vector<int> v{c.rank() + round};
      c.allreduce(std::span<int>(v));
      EXPECT_EQ(v[0], 3 + 3 * round);
    });
  }
}

}  // namespace
}  // namespace mbd::comm
