#include "mbd/comm/rounds.hpp"

#include <algorithm>

#include "mbd/support/check.hpp"

namespace mbd::comm {
namespace {

int mod(int a, int p) { return ((a % p) + p) % p; }

Round exchange(int tag, int to, BlockRange send, int from, BlockRange recv,
               bool combine = false) {
  return {tag, to, send, from, recv, combine};
}
Round send_only(int tag, int to, BlockRange send) {
  return exchange(tag, to, send, -1, {});
}
Round recv_only(int tag, int from, BlockRange recv, bool combine = false) {
  return exchange(tag, -1, {}, from, recv, combine);
}

// An empty program over `blocks` blocks, after checking rank and root.
RoundProgram start(int p, int rank, int blocks, int root = 0) {
  MBD_CHECK(rank >= 0 && rank < p);
  MBD_CHECK(root >= 0 && root < p);
  return {blocks, {}};
}

// Appends p−1 ring rounds tagged tag0, tag0+1, …: round s sends block
// rank+shift−s to the right neighbour and receives block rank+shift−s−1
// from the left one.
void ring(RoundProgram& prog, int p, int rank, int tag0, int shift,
          bool combine) {
  for (int s = 0; s < p - 1; ++s) {
    prog.rounds.push_back(exchange(tag0 + s, mod(rank + 1, p),
                                   {mod(rank + shift - s, p), 1},
                                   mod(rank - 1, p),
                                   {mod(rank + shift - s - 1, p), 1}, combine));
  }
}

// Recursive doubling and Rabenseifner run their core on the largest power
// of two p2 ≤ p. The first 2·rem ranks (rem = p − p2) pair up: the odd one
// folds its whole buffer into the even one below, sits out the core, and
// gets the result back at the end. Survivors renumber to virtual ranks
// 0..p2−1.
struct Fold {
  int p2 = 1, rem = 0, vr = -1;  // vr: virtual rank, −1 when folded out

  Fold(int p, int rank) {
    while (p2 * 2 <= p) p2 *= 2;
    rem = p - p2;
    vr = rank >= 2 * rem ? rank - rem : rank % 2 == 0 ? rank / 2 : -1;
  }
  int real_rank(int v) const { return v < rem ? v * 2 : v + rem; }

  // Wraps `core` in the fold-in (tag in_tag) and ship-back (tag out_tag)
  // rounds of this rank's pair.
  RoundProgram wrap(RoundProgram core, int rank, int in_tag,
                    int out_tag) const {
    if (rank >= 2 * rem) return core;
    const BlockRange all{0, core.blocks};
    RoundProgram prog{core.blocks, {}};
    if (vr < 0) {
      prog.rounds = {send_only(in_tag, rank - 1, all),
                     recv_only(out_tag, rank - 1, all)};
      return prog;
    }
    prog.rounds.push_back(recv_only(in_tag, rank + 1, all, true));
    prog.rounds.insert(prog.rounds.end(), core.rounds.begin(),
                       core.rounds.end());
    prog.rounds.push_back(send_only(out_tag, rank + 1, all));
    return prog;
  }
};

RoundProgram recursive_doubling(int p, int rank) {
  const Fold f(p, rank);
  RoundProgram core = start(p, rank, 1);
  for (int mask = 1, step = 0; f.vr >= 0 && mask < f.p2; mask <<= 1) {
    const int partner = f.real_rank(f.vr ^ mask);
    core.rounds.push_back(
        exchange(200 + step++, partner, {0, 1}, partner, {0, 1}, true));
  }
  return f.wrap(std::move(core), rank, 100, 300);
}

// Recursive-halving reduce-scatter, then recursive-doubling all-gather,
// over p2 canonical blocks: ring bandwidth in 2⌈log₂p2⌉ rounds.
RoundProgram rabenseifner(int p, int rank) {
  const Fold f(p, rank);
  RoundProgram core = start(p, rank, f.p2);
  const int vr = f.vr;
  if (vr < 0) return f.wrap(std::move(core), rank, 400, 450);
  // Halving: shrink the owned range [lo, hi) toward block vr, sending the
  // half the partner keeps.
  int lo = 0, hi = f.p2, step = 0;
  for (int mask = f.p2 / 2; mask >= 1; mask >>= 1, ++step) {
    const int mid = (lo + hi) / 2;
    const BlockRange low{lo, mid - lo}, high{mid, hi - mid};
    const BlockRange keep = (vr & mask) == 0 ? low : high;
    const int partner = f.real_rank(vr ^ mask);
    core.rounds.push_back(exchange(410 + step, partner,
                                   (vr & mask) == 0 ? high : low, partner,
                                   keep, true));
    lo = keep.first;
    hi = keep.first + keep.count;
  }
  MBD_CHECK(lo == vr && hi == vr + 1);
  // Doubling: grow the owned aligned window of width `mask` back to p2.
  for (int mask = 1; mask < f.p2; mask <<= 1, ++step) {
    const int vpartner = vr ^ mask;
    const int partner = f.real_rank(vpartner);
    core.rounds.push_back(exchange(430 + step, partner,
                                   {(vr / mask) * mask, mask}, partner,
                                   {(vpartner / mask) * mask, mask}));
  }
  return f.wrap(std::move(core), rank, 400, 450);
}

}  // namespace

RoundProgram allreduce_rounds(AllReduceAlgo algo, int p, int rank) {
  switch (algo) {
    case AllReduceAlgo::Ring: {
      // Reduce-scatter (send block r−s, accumulate r−s−1), then all-gather
      // of the reduced blocks (send block r+1−s, receive r−s).
      RoundProgram prog = start(p, rank, p);
      ring(prog, p, rank, 0, 0, true);
      ring(prog, p, rank, p - 1, 1, false);
      return prog;
    }
    case AllReduceAlgo::RecursiveDoubling: return recursive_doubling(p, rank);
    case AllReduceAlgo::Rabenseifner: return rabenseifner(p, rank);
  }
  MBD_CHECK(false);
  return {};
}

RoundProgram reduce_scatter_rounds(int p, int rank) {
  // Offset so that after p−1 rounds rank r owns the fully reduced canonical
  // block r: send block r−s−1, accumulate block r−s−2.
  RoundProgram prog = start(p, rank, p);
  ring(prog, p, rank, 0, -1, true);
  return prog;
}

RoundProgram allgather_rounds(AllGatherAlgo algo, int p, int rank) {
  RoundProgram prog = start(p, rank, p);
  switch (algo) {
    case AllGatherAlgo::Bruck:
      // Before round k rank r holds blocks r..r+k−1; it passes the first
      // min(k, p−k) of them to r−k and receives r+k's first as many.
      for (int k = 1, step = 0; k < p; k <<= 1, ++step) {
        const int count = std::min(k, p - k);
        prog.rounds.push_back(exchange(step, mod(rank - k, p), {rank, count},
                                       mod(rank + k, p),
                                       {mod(rank + k, p), count}));
      }
      return prog;
    case AllGatherAlgo::Ring:
      // Round s forwards the block that originated at rank r−s.
      ring(prog, p, rank, 0, 0, false);
      return prog;
  }
  MBD_CHECK(false);
  return {};
}

RoundProgram broadcast_rounds(int p, int rank, int root) {
  RoundProgram prog = start(p, rank, 1, root);
  const int vr = mod(rank - root, p);
  // Receive once from the parent (the lowest set bit of vr), then send to
  // the children below that bit, largest subtree first.
  int mask = 1;
  while (mask < p && (vr & mask) == 0) mask <<= 1;
  if (mask < p)
    prog.rounds.push_back(recv_only(0, mod(rank - mask, p), {0, 1}));
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (vr + mask < p)
      prog.rounds.push_back(send_only(0, mod(rank + mask, p), {0, 1}));
  }
  return prog;
}

RoundProgram reduce_rounds(int p, int rank, int root) {
  RoundProgram prog = start(p, rank, 1, root);
  const int vr = mod(rank - root, p);
  // Combine the children's partial results, then pass ours to the parent.
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((vr & mask) != 0) {
      prog.rounds.push_back(send_only(0, mod(rank - mask, p), {0, 1}));
      break;
    }
    if ((vr | mask) < p)
      prog.rounds.push_back(recv_only(0, mod(rank + mask, p), {0, 1}, true));
  }
  return prog;
}

RoundProgram barrier_rounds(int p, int rank) {
  RoundProgram prog = start(p, rank, 1);
  for (int k = 1, step = 0; k < p; k <<= 1, ++step) {
    prog.rounds.push_back(
        exchange(step, mod(rank + k, p), {0, 1}, mod(rank - k, p), {0, 1}));
  }
  return prog;
}

RoundProgram gather_rounds(int p, int rank, int root) {
  RoundProgram prog = start(p, rank, p, root);
  for (int r = 0; r < p; ++r) {
    if (rank != root && r == rank)
      prog.rounds.push_back(send_only(0, root, {r, 1}));
    if (rank == root && r != rank)
      prog.rounds.push_back(recv_only(0, r, {r, 1}));
  }
  return prog;
}

RoundProgram scatter_rounds(int p, int rank, int root) {
  RoundProgram prog = start(p, rank, p, root);
  for (int r = 0; r < p; ++r) {
    if (rank != root && r == rank)
      prog.rounds.push_back(recv_only(0, root, {r, 1}));
    if (rank == root && r != rank)
      prog.rounds.push_back(send_only(0, r, {r, 1}));
  }
  return prog;
}

RoundProgram alltoall_rounds(int p, int rank) {
  RoundProgram prog = start(p, rank, p);
  for (int s = 1; s < p; ++s) {
    const int to = mod(rank + s, p), from = mod(rank - s, p);
    prog.rounds.push_back(exchange(s, to, {to, 1}, from, {from, 1}));
  }
  return prog;
}

std::uint64_t send_words(const RoundProgram& prog,
                         std::span<const std::uint64_t> block_words) {
  MBD_CHECK_EQ(block_words.size(), static_cast<std::size_t>(prog.blocks));
  std::uint64_t words = 0;
  for (const Round& r : prog.rounds) {
    for (int i = 0; r.send_to >= 0 && i < r.send.count; ++i) {
      words += block_words[static_cast<std::size_t>((r.send.first + i) %
                                                    prog.blocks)];
    }
  }
  return words;
}

}  // namespace mbd::comm
