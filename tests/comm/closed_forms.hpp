// Closed-form send counts of the collective algorithms, written out
// independently of the round programs (mbd/comm/rounds.hpp) so tests can
// check the programs, the executed traffic and the cost model against them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace mbd::comm::closed_form {

/// Words every rank sends in the Bruck all-gather of p blocks of m words:
/// Σ_{k=1,2,4,…<p} min(k, p−k)·m.
inline std::uint64_t bruck_words(int p, std::uint64_t m) {
  std::uint64_t words = 0;
  for (int k = 1; k < p; k <<= 1)
    words += static_cast<std::uint64_t>(std::min(k, p - k)) * m;
  return words;
}

/// Messages every rank sends in the Bruck all-gather: ⌈log₂p⌉.
inline std::uint64_t bruck_messages(int p) {
  std::uint64_t rounds = 0;
  for (int k = 1; k < p; k <<= 1) ++rounds;
  return rounds;
}

/// Words rank r sends in the ring all-gather(v) of per-origin blocks b:
/// round s forwards the block that originated at r−s, Σ_{s<p−1} b[(r−s) mod p].
inline std::uint64_t ringv_words(const std::vector<std::uint64_t>& b, int r) {
  const int p = static_cast<int>(b.size());
  std::uint64_t words = 0;
  for (int s = 0; s < p - 1; ++s)
    words += b[static_cast<std::size_t>(((r - s) % p + p) % p)];
  return words;
}

/// Words rank r sends in the ring all-reduce of n words over the ⌊n·b/p⌋
/// blocks: block r−s in the reduce-scatter phase and block r+1−s in the
/// all-gather phase, for s < p−1.
inline std::uint64_t ring_allreduce_words(int p, std::uint64_t n, int r) {
  const auto block = [&](int b) {
    const auto u = static_cast<std::uint64_t>(((b % p) + p) % p);
    const auto pp = static_cast<std::uint64_t>(p);
    return n * (u + 1) / pp - n * u / pp;
  };
  std::uint64_t words = 0;
  for (int s = 0; s < p - 1; ++s) words += block(r - s) + block(r + 1 - s);
  return words;
}

/// Messages every rank sends in the ring all-reduce: 2(p−1).
inline std::uint64_t ring_allreduce_messages(int p) {
  return 2 * static_cast<std::uint64_t>(p - 1);
}

}  // namespace mbd::comm::closed_form
