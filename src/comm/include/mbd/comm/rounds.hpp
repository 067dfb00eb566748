// Collective algorithms as data: per-rank round programs.
//
// A builder returns, for one (algorithm, p, rank), that rank's ordered
// rounds. Each round is an optional send of a block range to one peer
// followed by an optional receive of a block range from one peer, which is
// copied in or combined as local = op(local, incoming). Blocks are the
// pieces a collective cuts its buffer into (RoundProgram::blocks of them).
//
// The programs are the single definition of every algorithm Comm runs: one
// interpreter in comm.hpp executes them (blocking and nonblocking), and the
// cost model folds the same programs into exact per-rank send volumes
// (send_words), so executed bytes and predicted bytes cannot drift apart.
// The algorithms are the textbook ones the paper's α–β model assumes
// (Thakur, Rabenseifner & Gropp 2005).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mbd::comm {

/// Algorithm selection for all-gather.
enum class AllGatherAlgo { Bruck, Ring };
/// Algorithm selection for all-reduce.
/// Ring and Rabenseifner move 2(P−1)/P·n words per process (bandwidth
/// optimal); RecursiveDoubling moves n·⌈log₂P⌉ (latency optimal for small n).
enum class AllReduceAlgo { Ring, RecursiveDoubling, Rabenseifner };

/// Blocks [first, first + count) taken modulo the program's block count: a
/// Bruck range may wrap past the last block, and still travels as one
/// message carrying its blocks in range order.
struct BlockRange {
  int first = 0;
  int count = 0;
};

/// One step of one rank's schedule: an optional send, then an optional
/// receive. `tag` is the step id; both ends of every message use the same
/// one, so matching never depends on how many rounds each side runs.
struct Round {
  int tag = 0;
  int send_to = -1;  ///< communicator rank, or -1 for no send
  BlockRange send;
  int recv_from = -1;  ///< communicator rank, or -1 for no receive
  BlockRange recv;
  bool combine = false;  ///< local = op(local, incoming) instead of a copy
};

/// One rank's rounds of a collective over a buffer cut into `blocks` blocks.
struct RoundProgram {
  int blocks = 1;
  std::vector<Round> rounds;
};

/// --- builders ---------------------------------------------------------------
/// Block layouts: the all-reduce algorithms cut the n-element vector into the
/// canonical partition (Comm::block_lo) of p blocks (ring), of the largest
/// power of two ≤ p (Rabenseifner), or keep it whole (recursive doubling);
/// reduce-scatter uses p canonical blocks; all-gather, gather, scatter and
/// all-to-all use one block per rank; broadcast, reduce and the barrier use
/// one block.

/// Ring: reduce-scatter then all-gather, 2(p−1) rounds. Recursive doubling
/// and Rabenseifner fold the p − 2^⌊log₂p⌋ extra ranks into their even
/// neighbours first and ship the result back last (MPICH scheme).
RoundProgram allreduce_rounds(AllReduceAlgo algo, int p, int rank);
/// Ring reduce-scatter: after p−1 rounds rank r holds reduced block r.
RoundProgram reduce_scatter_rounds(int p, int rank);
/// Bruck (⌈log₂p⌉ rounds) or ring (p−1 rounds). The ring program also runs
/// allgatherv, whose per-rank blocks differ in size.
RoundProgram allgather_rounds(AllGatherAlgo algo, int p, int rank);
/// Binomial tree rooted at `root`.
RoundProgram broadcast_rounds(int p, int rank, int root);
/// Binomial tree into `root`; op must be commutative and associative.
RoundProgram reduce_rounds(int p, int rank, int root);
/// Dissemination: ⌈log₂p⌉ rounds of one-block tokens.
RoundProgram barrier_rounds(int p, int rank);
/// Linear: every rank sends its block to the root, which receives in rank
/// order.
RoundProgram gather_rounds(int p, int rank, int root);
/// Linear: the root sends block r to every rank r, in rank order.
RoundProgram scatter_rounds(int p, int rank, int root);
/// Pairwise ring-offset exchange: round s sends block rank+s, receives block
/// rank−s.
RoundProgram alltoall_rounds(int p, int rank);

/// --- folds ------------------------------------------------------------------

/// Words this rank sends running `prog` when block b holds block_words[b]
/// words (block_words.size() == prog.blocks).
std::uint64_t send_words(const RoundProgram& prog,
                         std::span<const std::uint64_t> block_words);

}  // namespace mbd::comm
