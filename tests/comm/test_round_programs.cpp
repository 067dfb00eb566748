// Round programs checked as data, without a World: for every builder, the
// messages of all ranks pair up (same peer, order, tag and size at both
// ends) and the schedule completes under buffered sends; the folded send
// volumes equal the algorithms' closed forms and the paper's totals.
#include "mbd/comm/rounds.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "comm/closed_forms.hpp"

namespace mbd::comm {
namespace {

using Words = std::vector<std::uint64_t>;

constexpr std::uint64_t kSizes[] = {0, 1, 3, 13, 16, 23, 1000, 1021};
constexpr int kMaxRanks = 16;

// The canonical ⌊n·b/blocks⌋ partition (Comm::block_lo).
Words canonical(std::uint64_t n, int blocks) {
  Words w(static_cast<std::size_t>(blocks));
  for (int b = 0; b < blocks; ++b) {
    const auto u = static_cast<std::uint64_t>(b);
    const auto nb = static_cast<std::uint64_t>(blocks);
    w[static_cast<std::size_t>(b)] = n * (u + 1) / nb - n * u / nb;
  }
  return w;
}

// Per-origin blocks of different sizes, some of them empty.
Words uneven(int blocks, std::uint64_t n) {
  Words w(static_cast<std::size_t>(blocks));
  for (int b = 0; b < blocks; ++b) {
    w[static_cast<std::size_t>(b)] =
        (n * static_cast<std::uint64_t>(b + 3)) % (n + 4);
  }
  return w;
}

std::uint64_t range_words(const RoundProgram& prog, BlockRange br,
                          const Words& w) {
  std::uint64_t words = 0;
  for (int i = 0; i < br.count; ++i)
    words += w[static_cast<std::size_t>((br.first + i) % prog.blocks)];
  return words;
}

std::uint64_t sum(const Words& w) {
  return std::accumulate(w.begin(), w.end(), std::uint64_t{0});
}

/// One collective algorithm: its builder, and the block sizes every rank's
/// layout has for vector/block size n.
struct Algorithm {
  std::string name;
  std::function<RoundProgram(int p, int rank)> build;
  std::function<Words(const RoundProgram& prog, std::uint64_t n)> layout;
};

std::vector<Algorithm> algorithms(int p) {
  const auto whole = [](const RoundProgram& prog, std::uint64_t n) {
    return canonical(n, prog.blocks);
  };
  const auto per_rank = [](const RoundProgram& prog, std::uint64_t n) {
    return Words(static_cast<std::size_t>(prog.blocks), n);
  };
  const auto per_origin = [](const RoundProgram& prog, std::uint64_t n) {
    return uneven(prog.blocks, n);
  };
  const auto token = [](const RoundProgram& prog, std::uint64_t) {
    return Words(static_cast<std::size_t>(prog.blocks), 1);
  };
  const auto allreduce = [](AllReduceAlgo algo) {
    return [algo](int pp, int r) { return allreduce_rounds(algo, pp, r); };
  };
  const auto allgather = [](AllGatherAlgo algo) {
    return [algo](int pp, int r) { return allgather_rounds(algo, pp, r); };
  };
  std::vector<Algorithm> algos = {
      {"allreduce_ring", allreduce(AllReduceAlgo::Ring), whole},
      {"allreduce_recursive_doubling",
       allreduce(AllReduceAlgo::RecursiveDoubling), whole},
      {"allreduce_rabenseifner", allreduce(AllReduceAlgo::Rabenseifner),
       whole},
      {"reduce_scatter_ring", reduce_scatter_rounds, whole},
      {"allgather_bruck", allgather(AllGatherAlgo::Bruck), per_rank},
      {"allgather_ring", allgather(AllGatherAlgo::Ring), per_rank},
      {"allgatherv_ring", allgather(AllGatherAlgo::Ring), per_origin},
      {"barrier", barrier_rounds, token},
      {"alltoall", alltoall_rounds, per_rank},
  };
  for (const int root : {0, p / 2, p - 1}) {
    const std::string at = "@" + std::to_string(root);
    const auto rooted = [root](RoundProgram (*b)(int, int, int)) {
      return [b, root](int pp, int r) { return b(pp, r, root); };
    };
    algos.push_back({"broadcast" + at, rooted(broadcast_rounds), whole});
    algos.push_back({"reduce" + at, rooted(reduce_rounds), whole});
    algos.push_back({"gather" + at, rooted(gather_rounds), per_origin});
    algos.push_back({"scatter" + at, rooted(scatter_rounds), per_rank});
  }
  return algos;
}

std::vector<RoundProgram> programs(const Algorithm& a, int p) {
  std::vector<RoundProgram> progs;
  for (int r = 0; r < p; ++r) progs.push_back(a.build(p, r));
  return progs;
}

// (a) The k-th send from a to b has the tag and size of the k-th receive at
// b from a, and the schedule runs to completion under buffered sends.
void expect_messages_pair_up(const std::vector<RoundProgram>& progs,
                             std::uint64_t n, const Algorithm& a,
                             const std::string& where) {
  const int p = static_cast<int>(progs.size());
  using Msg = std::pair<int, std::uint64_t>;  // tag, words
  std::map<std::pair<int, int>, std::deque<Msg>> in_flight;  // (src, dst)
  std::vector<std::size_t> next(static_cast<std::size_t>(p), 0);
  std::vector<bool> sent(static_cast<std::size_t>(p), false);
  for (bool progress = true; progress;) {
    progress = false;
    for (int r = 0; r < p; ++r) {
      const RoundProgram& prog = progs[static_cast<std::size_t>(r)];
      const Words w = a.layout(prog, n);
      auto& at = next[static_cast<std::size_t>(r)];
      while (at < prog.rounds.size()) {
        const Round& round = prog.rounds[at];
        if (!sent[static_cast<std::size_t>(r)] && round.send_to >= 0) {
          ASSERT_TRUE(round.send_to < p && round.send_to != r) << where;
          in_flight[{r, round.send_to}].push_back(
              {round.tag, range_words(prog, round.send, w)});
        }
        sent[static_cast<std::size_t>(r)] = true;
        if (round.recv_from >= 0) {
          ASSERT_TRUE(round.recv_from < p && round.recv_from != r) << where;
          auto& q = in_flight[{round.recv_from, r}];
          if (q.empty()) break;  // blocked until the peer sends
          EXPECT_EQ(q.front(), Msg(round.tag, range_words(prog, round.recv, w)))
              << where << " rank " << r << " round " << at << " from "
              << round.recv_from;
          q.pop_front();
        }
        sent[static_cast<std::size_t>(r)] = false;
        ++at;
        progress = true;
      }
    }
  }
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(next[static_cast<std::size_t>(r)],
              progs[static_cast<std::size_t>(r)].rounds.size())
        << where << " rank " << r << " never finishes";
  }
  for (const auto& [link, q] : in_flight)
    EXPECT_TRUE(q.empty()) << where << " unreceived " << link.first << "->"
                           << link.second;
}

TEST(RoundPrograms, MessagesPairUpForEveryBuilder) {
  for (int p = 1; p <= kMaxRanks; ++p) {
    for (const Algorithm& a : algorithms(p)) {
      const auto progs = programs(a, p);
      for (const std::uint64_t n : kSizes) {
        expect_messages_pair_up(progs, n, a,
                                a.name + " p=" + std::to_string(p) +
                                    " n=" + std::to_string(n));
      }
    }
  }
}

// (b) Each rank's folded send words equal the algorithm's closed form.
TEST(RoundPrograms, SendWordsEqualClosedForms) {
  for (int p = 1; p <= kMaxRanks; ++p) {
    for (const std::uint64_t n : kSizes) {
      const Words per_origin = uneven(p, n);
      for (int r = 0; r < p; ++r) {
        const auto where = "p=" + std::to_string(p) + " n=" +
                           std::to_string(n) + " rank " + std::to_string(r);
        EXPECT_EQ(send_words(allgather_rounds(AllGatherAlgo::Bruck, p, r),
                             Words(static_cast<std::size_t>(p), n)),
                  closed_form::bruck_words(p, n))
            << where;
        EXPECT_EQ(send_words(allgather_rounds(AllGatherAlgo::Ring, p, r),
                             per_origin),
                  closed_form::ringv_words(per_origin, r))
            << where;
        EXPECT_EQ(send_words(allreduce_rounds(AllReduceAlgo::Ring, p, r),
                             canonical(n, p)),
                  closed_form::ring_allreduce_words(p, n, r))
            << where;
      }
    }
  }
}

// (c) Summed over ranks, the folds equal the paper's totals: an all-gather
// of N words moves (p−1)·N, a bandwidth-optimal all-reduce of n words
// 2(p−1)·n.
TEST(RoundPrograms, RankSumsEqualPaperTotals) {
  for (int p = 1; p <= kMaxRanks; ++p) {
    const bool pow2 = (p & (p - 1)) == 0;
    const auto pm1 = static_cast<std::uint64_t>(p - 1);
    for (const std::uint64_t n : kSizes) {
      const Words per_origin = uneven(p, n);
      std::uint64_t bruck = 0, ringv = 0, ring = 0, rab = 0;
      for (int r = 0; r < p; ++r) {
        bruck += send_words(allgather_rounds(AllGatherAlgo::Bruck, p, r),
                            Words(static_cast<std::size_t>(p), n));
        ringv += send_words(allgather_rounds(AllGatherAlgo::Ring, p, r),
                            per_origin);
        ring += send_words(allreduce_rounds(AllReduceAlgo::Ring, p, r),
                           canonical(n, p));
        const auto prog = allreduce_rounds(AllReduceAlgo::Rabenseifner, p, r);
        rab += send_words(prog, canonical(n, prog.blocks));
      }
      const auto where = "p=" + std::to_string(p) + " n=" + std::to_string(n);
      EXPECT_EQ(bruck, pm1 * static_cast<std::uint64_t>(p) * n) << where;
      EXPECT_EQ(ringv, pm1 * sum(per_origin)) << where;
      EXPECT_EQ(ring, 2 * pm1 * n) << where;
      if (pow2) EXPECT_EQ(rab, 2 * pm1 * n) << where;
    }
  }
}

// (d) Round counts: 2(p−1) for the ring all-reduce, ⌈log₂p⌉ for Bruck.
TEST(RoundPrograms, RoundCounts) {
  for (int p = 1; p <= kMaxRanks; ++p) {
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(allreduce_rounds(AllReduceAlgo::Ring, p, r).rounds.size(),
                closed_form::ring_allreduce_messages(p))
          << "p=" << p;
      EXPECT_EQ(allgather_rounds(AllGatherAlgo::Bruck, p, r).rounds.size(),
                closed_form::bruck_messages(p))
          << "p=" << p;
    }
  }
}

TEST(RoundPrograms, BruckSendWordsSumToAllGatherTotal) {
  // Every rank of the Bruck all-gather sends Σ min(2^i, p−2^i)·m words, and
  // p ranks together move the collective's total (p−1)·p·m words.
  for (int p : {2, 3, 4, 5, 8}) {
    const std::uint64_t m = 17;
    std::uint64_t total = 0;
    for (int r = 0; r < p; ++r) {
      total += send_words(allgather_rounds(AllGatherAlgo::Bruck, p, r),
                          Words(static_cast<std::size_t>(p), m));
    }
    EXPECT_EQ(total, static_cast<std::uint64_t>(p) * (p - 1) * m) << "p=" << p;
  }
}

TEST(RoundPrograms, RingvSendWordsSumToAllGatherTotal) {
  // The ring all-gatherv forwards every origin block through p−1 hops.
  const Words blocks = {5, 0, 7, 3};
  const int p = static_cast<int>(blocks.size());
  std::uint64_t total = 0;
  for (int r = 0; r < p; ++r)
    total += send_words(allgather_rounds(AllGatherAlgo::Ring, p, r), blocks);
  EXPECT_EQ(total, static_cast<std::uint64_t>(p - 1) * sum(blocks));
}

TEST(RoundPrograms, RingAllReduceSendWordsSumToTotal) {
  // Reduce-scatter + all-gather over uneven ⌊n·b/p⌋ blocks: all ranks
  // together send 2(p−1)·n words regardless of how the blocks divide.
  for (int p : {2, 3, 4, 7}) {
    for (std::size_t n : {16u, 23u, 1024u}) {
      std::uint64_t total = 0;
      for (int r = 0; r < p; ++r) {
        total += send_words(allreduce_rounds(AllReduceAlgo::Ring, p, r),
                            canonical(n, p));
      }
      EXPECT_EQ(total, 2u * static_cast<std::uint64_t>(p - 1) * n)
          << "p=" << p << " n=" << n;
    }
  }
}

TEST(RoundPrograms, WrappingBruckRangeIsOneRound) {
  // p = 6, rank 5: the k = 2 and k = 4 rounds each pass blocks 5 and 0 —
  // one range that wraps past the last block, so one message.
  const auto prog = allgather_rounds(AllGatherAlgo::Bruck, 6, 5);
  ASSERT_EQ(prog.rounds.size(), 3u);
  for (const std::size_t k : {1u, 2u}) {
    EXPECT_EQ(prog.rounds[k].send.first, 5);
    EXPECT_EQ(prog.rounds[k].send.count, 2);
  }
  EXPECT_EQ(send_words(prog, Words(6, 10)), (1 + 2 + 2) * 10u);
}

}  // namespace
}  // namespace mbd::comm
