// Communicator: rank-addressed message passing plus the collective
// algorithms the paper's cost model assumes.
//
// Every collective is a round program (mbd/comm/rounds.hpp, which lists the
// algorithms) run by one interpreter, detail::RoundRunner, below: blocking
// collectives drive it to completion, nonblocking ones keep it behind a
// CollectiveHandle. The instrumented byte counts match the α–β model terms
// exactly: per-process all-gather volume = (P-1)/P · n, ring all-reduce =
// 2(P-1)/P · n.
#pragma once

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "mbd/comm/fabric.hpp"
#include "mbd/comm/nonblocking.hpp"
#include "mbd/comm/rounds.hpp"
#include "mbd/comm/validator.hpp"
#include "mbd/obs/profiler.hpp"
#include "mbd/support/check.hpp"

namespace mbd::comm {

namespace detail {

template <typename T, typename Op>
class RoundRunner;
template <typename T>
class IRecvOp;

/// The op of programs that only copy (gathers, broadcast, barrier).
struct NoCombine {};

/// Where a program's blocks live. Contiguous layout: block b is
/// [lo[b], lo[b+1]) of both `src`, which sends read, and `dst`, where
/// receives land (the same memory for in-place collectives); an empty `lo`
/// means the program's canonical blocks of `dst`. Learned layout (`owned`
/// non-empty): block b is owned[b], a received block takes whatever size
/// arrives, and `*concat` gets the blocks in rank order at completion —
/// allgatherv and the gather root, where ranks contribute different sizes.
template <typename T>
struct BlockBuffer {
  std::span<const T> src{};
  std::span<T> dst{};
  std::vector<std::size_t> lo{};
  std::vector<std::vector<T>> owned{};
  std::vector<T>* concat = nullptr;
};

/// A learned layout of p blocks that holds only this rank's block so far.
template <typename T>
BlockBuffer<T> learned(int p, int rank, std::span<const T> own,
                       std::vector<T>* concat) {
  BlockBuffer<T> buf{.owned = std::vector<std::vector<T>>(
                         static_cast<std::size_t>(p)),
                     .concat = concat};
  buf.owned[static_cast<std::size_t>(rank)].assign(own.begin(), own.end());
  return buf;
}

}  // namespace detail

/// A communicator over a subset of a World's ranks. Cheap to copy.
///
/// All collective members must be called by every rank of the communicator
/// (standard MPI semantics). Point-to-point source/destination arguments are
/// ranks *within this communicator*.
class Comm {
 public:
  Comm(std::shared_ptr<detail::Fabric> fabric, std::uint64_t context,
       std::shared_ptr<const std::vector<int>> members, int rank);

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(members_->size()); }

  /// --- point to point -----------------------------------------------------

  /// Send `data` to communicator rank `dst` with `tag`. Buffered: returns as
  /// soon as the payload is deposited in the destination mailbox.
  template <typename T>
  void send(int dst, std::span<const T> data, int tag = 0) {
    send_bytes(dst, as_bytes_span(data), tag, Coll::PointToPoint);
  }
  /// Deduction helper: accept a mutable span without an explicit cast.
  template <typename T>
    requires(!std::is_const_v<T>)
  void send(int dst, std::span<T> data, int tag = 0) {
    send(dst, std::span<const T>(data), tag);
  }

  /// Receive a message from communicator rank `src` with `tag`; blocks. The
  /// wait is a CollWait span, so a pipeline bubble or a halo wait reads as
  /// communication, not as the calling stage's own time.
  template <typename T>
  std::vector<T> recv(int src, int tag = 0) {
    obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "recv");
    std::vector<T> out = from_bytes<T>(recv_bytes(src, tag));
    obs_span.set_args(out.size() * sizeof(T), 0);
    return out;
  }

  /// Simultaneous exchange with (possibly different) peers; deadlock-free by
  /// buffered-send construction. Used for halo exchange.
  template <typename T>
  std::vector<T> sendrecv(int dst, std::span<const T> send_data, int src,
                          int tag = 0) {
    obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "sendrecv");
    obs_span.set_args(send_data.size() * sizeof(T), 0);
    send_bytes(dst, as_bytes_span(send_data), tag, Coll::PointToPoint);
    return from_bytes<T>(recv_bytes(src, tag));
  }

  /// --- nonblocking operations ---------------------------------------------
  ///
  /// Each i* call deposits its first round of messages and returns a
  /// CollectiveHandle; overlap compute with the operation and then wait().
  /// The spans/pointers passed in must stay alive and unmodified (except by
  /// the operation itself) until the handle reports done(). Nonblocking
  /// collectives must be issued through the same Comm object on every rank
  /// and in the same program order (their private tag blocks are derived
  /// from a per-communicator issue counter). See mbd/comm/nonblocking.hpp
  /// for progress and validator semantics.

  /// Nonblocking ring all-reduce (elementwise, in place). The same round
  /// program as the blocking ring — the completed result is bitwise equal
  /// to allreduce(..., AllReduceAlgo::Ring).
  template <typename T, typename Op = std::plus<T>>
  CollectiveHandle iallreduce(std::span<T> data, Op op = {});

  /// Nonblocking ring all-gather of equal-size blocks into caller-owned
  /// `out` (size local.size() * P, rank-ordered). This rank's block is
  /// copied in at initiation.
  template <typename T>
  CollectiveHandle iallgather(std::span<const T> local, std::span<T> out);

  /// Nonblocking ring all-gather of VARIABLE-size blocks; `*out` receives
  /// the rank-ordered concatenation at completion.
  template <typename T>
  CollectiveHandle iallgatherv(std::span<const T> local, std::vector<T>* out);

  /// Nonblocking exchange with (possibly different) peers: `send_data` is
  /// deposited to `dst` immediately; the handle completes the receive from
  /// `src` into `*recv_out`. Matching mirrors sendrecv() (user tag space),
  /// so blocking sends pair with it fine. Used for halo exchange overlapped
  /// with interior compute.
  template <typename T>
  CollectiveHandle isendrecv(int dst, std::span<const T> send_data, int src,
                             std::vector<T>* recv_out, int tag = 0);

  /// --- collectives ---------------------------------------------------------

  /// Dissemination barrier: ⌈log2 P⌉ rounds.
  void barrier();

  /// Binomial-tree broadcast of root's `data` (all ranks pass equal sizes).
  template <typename T>
  void broadcast(std::span<T> data, int root);

  /// Binomial-tree reduction into `data` on root (other ranks' buffers are
  /// left partially combined — treat them as scratch). Op must be
  /// commutative and associative.
  template <typename T, typename Op = std::plus<T>>
  void reduce(std::span<T> data, int root, Op op = {});

  /// All-gather of equal-size local blocks; result is ordered by rank.
  template <typename T>
  std::vector<T> allgather(std::span<const T> local,
                           AllGatherAlgo algo = AllGatherAlgo::Bruck);
  template <typename T>
    requires(!std::is_const_v<T>)
  std::vector<T> allgather(std::span<T> local,
                           AllGatherAlgo algo = AllGatherAlgo::Bruck) {
    return allgather(std::span<const T>(local), algo);
  }

  /// All-gather of VARIABLE-size blocks (ring algorithm, P−1 rounds); the
  /// result is the rank-ordered concatenation. Unlike allgather(), ranks may
  /// pass different local sizes — used by the partitioned trainers when a
  /// dimension does not divide evenly.
  template <typename T>
  std::vector<T> allgatherv(std::span<const T> local);
  template <typename T>
    requires(!std::is_const_v<T>)
  std::vector<T> allgatherv(std::span<T> local) {
    return allgatherv(std::span<const T>(local));
  }

  /// All-reduce (elementwise, in place).
  template <typename T, typename Op = std::plus<T>>
  void allreduce(std::span<T> data, Op op = {},
                 AllReduceAlgo algo = AllReduceAlgo::Ring);

  /// Ring reduce-scatter: returns this rank's reduced block (block r of the
  /// canonical P-way partition of [0, n)).
  template <typename T, typename Op = std::plus<T>>
  std::vector<T> reduce_scatter(std::span<const T> data, Op op = {});

  /// Linear gather to root; result (root only) is rank-ordered concatenation.
  template <typename T>
  std::vector<T> gather(std::span<const T> local, int root);
  template <typename T>
    requires(!std::is_const_v<T>)
  std::vector<T> gather(std::span<T> local, int root) {
    return gather(std::span<const T>(local), root);
  }

  /// Linear scatter from root of equal `chunk`-sized pieces.
  template <typename T>
  std::vector<T> scatter(std::span<const T> all, int root, std::size_t chunk);

  /// All-to-all of equal `chunk`-sized pieces: `data` holds P chunks, chunk
  /// r destined for rank r; the result holds chunk s from each rank s, in
  /// rank order. Ring-offset pairwise exchange, P−1 rounds; traffic is
  /// recorded under the Gather class (no strategy in this project uses
  /// all-to-all, so it never pollutes the validated classes).
  template <typename T>
  std::vector<T> alltoall(std::span<const T> data, std::size_t chunk);
  template <typename T>
    requires(!std::is_const_v<T>)
  std::vector<T> alltoall(std::span<T> data, std::size_t chunk) {
    return alltoall(std::span<const T>(data), chunk);
  }

  /// Collective split, MPI_Comm_split semantics: ranks with equal `color`
  /// form a new communicator, ordered by (key, parent rank).
  Comm split(int color, int key);

  /// If the World is recording schedules, mark the end of engine iteration
  /// `iteration` in this rank's log (no-op otherwise). The analyzer uses
  /// these markers to carve per-iteration traffic windows and to bound
  /// nonblocking-handle lifetimes to their epoch.
  void mark_engine_step(std::size_t iteration);

  /// If the World is tracing, log `seconds` of modeled compute on this rank
  /// at the current point in its event stream (no-op otherwise). Replay uses
  /// these annotations to interleave compute with communication.
  void annotate_compute(double seconds);

  /// Canonical block partition of n elements over P ranks: element range of
  /// block `b` is [block_lo(n,P,b), block_lo(n,P,b+1)).
  static std::size_t block_lo(std::size_t n, int p, int b) {
    return (n * static_cast<std::size_t>(b)) / static_cast<std::size_t>(p);
  }

 private:
  template <typename T>
  static std::span<const std::byte> as_bytes_span(std::span<const T> s) {
    return {reinterpret_cast<const std::byte*>(s.data()), s.size_bytes()};
  }
  template <typename T>
  static std::vector<T> from_bytes(std::vector<std::byte> b) {
    MBD_CHECK_EQ(b.size() % sizeof(T), 0u);
    std::vector<T> out(b.size() / sizeof(T));
    // Zero-length payloads are legal and their data() may be null; memcpy's
    // arguments are declared nonnull even for n == 0 (UBSan enforces this).
    if (!b.empty()) std::memcpy(out.data(), b.data(), b.size());
    return out;
  }

  // `reserved_op` != 0 marks a nonblocking round send carrying an op
  // identity reserved at initiation (see reserve_nb_ops): the injector fires
  // faults against that exact identity instead of the live op counter, so
  // drain-time polling cannot shift which op a fault lands on.
  void send_bytes(int dst, std::span<const std::byte> data, int tag, Coll c,
                  std::uint64_t reserved_op = 0);
  // `counted` == false skips the injector op count: nonblocking Block
  // receives are uncounted because whether a round completes via a test()
  // poll (never counted) or a wait() blocking recv is timing-dependent.
  std::vector<std::byte> recv_bytes(int src, int tag, bool counted = true);
  // Nonblocking variant: false (and `out` untouched) when no matching
  // message has been delivered yet.
  bool try_recv_bytes(int src, int tag, std::vector<std::byte>& out);
  // Reserve `rounds` consecutive injector op identities for a nonblocking
  // collective at initiation. Initiation is program-ordered across ranks, so
  // the identities are deterministic no matter how the op is later drained.
  // Returns the first identity, or 0 when no injector is installed.
  std::uint64_t reserve_nb_ops(std::uint64_t rounds);
  int global_rank(int comm_rank) const;

  // Append a Recv event to this rank's schedule log (no-op when the World
  // is not recording). Shared by the blocking and nonblocking receive paths.
  void record_recv(int gme, int gsrc, int tag, std::size_t bytes);

  // Registers `op` with the validator (leak tracking), eagerly advances it
  // once (posting round-0 sends), and wraps it in a handle. `op_name` must
  // point at a string literal: the profiler keeps it for the lifetime of the
  // timeline (CollPost span label + completion-span label via obs_what).
  CollectiveHandle make_handle(std::unique_ptr<detail::PendingOp> op,
                               const char* op_name, std::string what);

  // Registers a collective entry with the World's validator (no-op when
  // validation is off). Throws ValidationError on a cross-rank mismatch.
  void validate_entry(const CollectiveDesc& desc);

  // Internal tags are offset per collective so user p2p traffic on the same
  // communicator can never be confused with collective traffic.
  static constexpr int kInternalTagBase = 1 << 20;
  static int internal_tag(Coll c, int step) {
    return kInternalTagBase + (static_cast<int>(c) << 12) + step;
  }

  // Nonblocking collectives draw a private tag block per operation instance
  // so several may be outstanding on one communicator without their round
  // messages cross-matching (the mailbox matches on (context, source, tag)
  // only). The issue counter is consistent across ranks because standard
  // collective semantics require identical program order; its wraparound is
  // safe because kNbSeqWrap operations can never be simultaneously in
  // flight. The block sits above both the user tag space and
  // kInternalTagBase.
  static constexpr int kNbTagBase = 1 << 24;
  static constexpr int kNbTagStride = 1 << 12;  // max rounds per op
  static constexpr int kNbSeqWrap = 1 << 14;
  int nb_tag_block() {
    const int seq = nb_seq_;
    nb_seq_ = (nb_seq_ + 1) % kNbSeqWrap;
    return kNbTagBase + seq * kNbTagStride;
  }

  // Runs `prog` over `buf` to completion, its messages tagged and counted
  // as collective class `c`.
  template <typename T, typename Op = detail::NoCombine>
  void run_rounds(RoundProgram prog, Coll c, detail::BlockBuffer<T> buf,
                  Op op = {});
  // Starts `prog` over `buf` behind a handle: posts round 0 and returns.
  template <typename T, typename Op = detail::NoCombine>
  CollectiveHandle start_rounds(RoundProgram prog, Coll c,
                                detail::BlockBuffer<T> buf, Op op,
                                const char* op_name, std::string what);

  template <typename T, typename Op>
  friend class detail::RoundRunner;
  template <typename T>
  friend class detail::IRecvOp;

  std::shared_ptr<detail::Fabric> fabric_;
  std::uint64_t context_;
  std::shared_ptr<const std::vector<int>> members_;  // comm rank -> global rank
  int rank_;
  int split_seq_ = 0;  // number of splits performed (consistent across ranks)
  int nb_seq_ = 0;     // nonblocking ops issued (consistent across ranks)
};

namespace detail {

/// The interpreter of round programs. Each round posts its send once
/// (`sent_` latches across advance() calls), then polls or blocks for its
/// receive, which the interpreter checks against the size the program
/// expects before copying or combining it. Blocking collectives run it with
/// Drive::Block; nonblocking ones keep it behind a CollectiveHandle.
template <typename T, typename Op>
class RoundRunner final : public PendingOp {
 public:
  // Round k's messages carry tag tag_base + Round::tag. A blocking run
  // borrows the caller's Comm and counts its receives as injector ops. A
  // nonblocking op keeps a copy of the Comm, because its handle may outlive
  // the caller's, and its receives stay uncounted; op_base != 0 gives round
  // k's send the reserved injector op identity op_base + k.
  RoundRunner(Comm& comm, bool blocking, RoundProgram prog, Coll coll,
              BlockBuffer<T> buf, Op op, int tag_base, std::uint64_t op_base)
      : own_(blocking ? nullptr : std::make_unique<Comm>(comm)),
        comm_(blocking ? &comm : own_.get()),
        counted_(blocking),
        prog_(std::move(prog)),
        coll_(coll),
        buf_(std::move(buf)),
        op_(op),
        tag_base_(tag_base),
        op_base_(op_base) {
    if (!buf_.owned.empty() || !buf_.lo.empty()) return;
    for (int b = 0; b <= prog_.blocks; ++b)
      buf_.lo.push_back(Comm::block_lo(buf_.dst.size(), prog_.blocks, b));
  }

  bool advance(Drive drive) override {
    while (next_ < prog_.rounds.size()) {
      const Round& r = prog_.rounds[next_];
      const int tag = tag_base_ + r.tag;
      if (!sent_ && r.send_to >= 0) {
        comm_->send_bytes(r.send_to, Comm::as_bytes_span(range(r.send)), tag,
                          coll_, op_base_ == 0 ? 0 : op_base_ + next_);
      }
      sent_ = true;
      if (drive == Drive::Post) return false;
      if (r.recv_from >= 0) {
        std::vector<std::byte> raw;
        if (drive == Drive::Block) {
          raw = comm_->recv_bytes(r.recv_from, tag, counted_);
        } else if (!comm_->try_recv_bytes(r.recv_from, tag, raw)) {
          return false;
        }
        land(r, std::move(raw));
      }
      sent_ = false;
      ++next_;
    }
    if (buf_.concat != nullptr) {
      std::size_t total = 0;
      for (const auto& b : buf_.owned) total += b.size();
      buf_.concat->clear();
      buf_.concat->reserve(total);
      for (const auto& b : buf_.owned)
        buf_.concat->insert(buf_.concat->end(), b.begin(), b.end());
    }
    return true;
  }

 private:
  // Calls f(lo, hi) for each element run of `br`: one run, or two when the
  // range wraps past the last block.
  template <typename F>
  void for_each_run(BlockRange br, F&& f) const {
    const auto& lo = buf_.lo;
    const auto end = static_cast<std::size_t>(br.first + br.count);
    const auto blocks = static_cast<std::size_t>(prog_.blocks);
    f(lo[static_cast<std::size_t>(br.first)], lo[std::min(end, blocks)]);
    if (end > blocks) f(lo[0], lo[end - blocks]);
  }

  // The elements of `br` in range order: a view of the buffer, or a staged
  // copy when the range wraps (one message either way).
  std::span<const T> range(BlockRange br) {
    if (!buf_.owned.empty()) {
      MBD_CHECK_EQ(br.count, 1);
      return buf_.owned[static_cast<std::size_t>(br.first)];
    }
    if (br.first + br.count <= prog_.blocks) {
      const std::size_t lo = buf_.lo[static_cast<std::size_t>(br.first)];
      return buf_.src.subspan(
          lo, buf_.lo[static_cast<std::size_t>(br.first + br.count)] - lo);
    }
    staged_.clear();
    for_each_run(br, [&](std::size_t lo, std::size_t hi) {
      staged_.insert(staged_.end(), buf_.src.begin() + lo,
                     buf_.src.begin() + hi);
    });
    return staged_;
  }

  void land(const Round& r, std::vector<std::byte> raw) {
    if (!buf_.owned.empty()) {
      MBD_CHECK(r.recv.count == 1 && !r.combine);
      buf_.owned[static_cast<std::size_t>(r.recv.first)] =
          Comm::from_bytes<T>(std::move(raw));
      return;
    }
    std::size_t words = 0;
    for_each_run(r.recv, [&](std::size_t lo, std::size_t hi) {
      words += hi - lo;
    });
    MBD_CHECK_MSG(raw.size() == words * sizeof(T),
                  "round " << next_ << " from rank " << r.recv_from
                           << " carried " << raw.size() << " bytes, expected "
                           << words * sizeof(T));
    if (!r.combine) {
      const std::byte* in = raw.data();
      for_each_run(r.recv, [&](std::size_t lo, std::size_t hi) {
        if (hi == lo) return;  // memcpy's pointers must be non-null
        std::memcpy(buf_.dst.data() + lo, in, (hi - lo) * sizeof(T));
        in += (hi - lo) * sizeof(T);
      });
      return;
    }
    if constexpr (std::is_same_v<Op, NoCombine>) {
      MBD_CHECK_MSG(false, "a copy-only collective ran a combining round");
    } else {
      const std::vector<T> in = Comm::from_bytes<T>(std::move(raw));
      std::size_t at = 0;
      for_each_run(r.recv, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          buf_.dst[i] = op_(buf_.dst[i], in[at++]);
      });
    }
  }

  std::unique_ptr<Comm> own_;  // nonblocking only
  Comm* comm_;
  bool counted_;
  RoundProgram prog_;
  Coll coll_;
  BlockBuffer<T> buf_;
  Op op_;
  int tag_base_;
  std::uint64_t op_base_;  // first reserved injector op identity (0 = none)
  std::vector<T> staged_;  // a wrapping range's send payload
  std::size_t next_ = 0;   // current round
  bool sent_ = false;      // current round's send posted
};

// The pending-receive half of isendrecv (the send is buffered at initiation).
template <typename T>
class IRecvOp final : public PendingOp {
 public:
  IRecvOp(Comm comm, int src, int tag, std::vector<T>* out)
      : comm_(std::move(comm)), src_(src), tag_(tag), out_(out) {}

  bool advance(Drive drive) override {
    // The send half was buffered at initiation; nothing to post here.
    if (drive == Drive::Post) return false;
    std::vector<std::byte> raw;
    if (drive == Drive::Block) {
      // Uncounted like every nonblocking Block receive: a round that
      // completes via a test() poll performs no blocking recv at all.
      raw = comm_.recv_bytes(src_, tag_, /*counted=*/false);
    } else if (!comm_.try_recv_bytes(src_, tag_, raw)) {
      return false;
    }
    *out_ = Comm::from_bytes<T>(std::move(raw));
    return true;
  }

 private:
  Comm comm_;
  int src_;
  int tag_;
  std::vector<T>* out_;
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Template implementations.
// ---------------------------------------------------------------------------

template <typename T, typename Op>
void Comm::run_rounds(RoundProgram prog, Coll c, detail::BlockBuffer<T> buf,
                      Op op) {
  detail::RoundRunner<T, Op>(*this, /*blocking=*/true, std::move(prog), c,
                             std::move(buf), op, internal_tag(c, 0),
                             /*op_base=*/0)
      .advance(detail::Drive::Block);
}

template <typename T, typename Op>
CollectiveHandle Comm::start_rounds(RoundProgram prog, Coll c,
                                    detail::BlockBuffer<T> buf, Op op,
                                    const char* op_name, std::string what) {
  const int tag_base = nb_tag_block();
  const std::uint64_t op_base = reserve_nb_ops(prog.rounds.size());
  return make_handle(std::make_unique<detail::RoundRunner<T, Op>>(
                         *this, /*blocking=*/false, std::move(prog), c,
                         std::move(buf), op, tag_base, op_base),
                     op_name, std::move(what));
}

template <typename T>
void Comm::broadcast(std::span<T> data, int root) {
  const int p = size();
  MBD_CHECK(root >= 0 && root < p);
  obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "broadcast");
  obs_span.set_args(data.size() * sizeof(T), 0);
  validate_entry({.kind = OpKind::Broadcast,
                  .count = data.size(),
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .root = root});
  run_rounds(broadcast_rounds(p, rank_, root), Coll::Broadcast,
             detail::BlockBuffer<T>{.src = data, .dst = data});
}

template <typename T, typename Op>
void Comm::reduce(std::span<T> data, int root, Op op) {
  const int p = size();
  MBD_CHECK(root >= 0 && root < p);
  obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "reduce");
  obs_span.set_args(data.size() * sizeof(T), 0);
  validate_entry({.kind = OpKind::Reduce,
                  .count = data.size(),
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .reduce_op = typeid(Op).name(),
                  .root = root});
  run_rounds(reduce_rounds(p, rank_, root), Coll::Reduce,
             detail::BlockBuffer<T>{.src = data, .dst = data}, op);
}

template <typename T>
std::vector<T> Comm::allgather(std::span<const T> local, AllGatherAlgo algo) {
  obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "allgather");
  obs_span.set_args(local.size() * sizeof(T), 0);
  validate_entry({.kind = OpKind::AllGather,
                  .count = local.size(),
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .algo = static_cast<int>(algo)});
  const int p = size();
  std::vector<T> out(local.size() * static_cast<std::size_t>(p));
  std::copy(local.begin(), local.end(),
            out.begin() + static_cast<std::ptrdiff_t>(rank_ * local.size()));
  run_rounds(allgather_rounds(algo, p, rank_), Coll::AllGather,
             detail::BlockBuffer<T>{.src = out, .dst = out});
  return out;
}

template <typename T>
std::vector<T> Comm::alltoall(std::span<const T> data, std::size_t chunk) {
  const int p = size();
  MBD_CHECK_EQ(data.size(), chunk * static_cast<std::size_t>(p));
  obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "alltoall");
  obs_span.set_args(data.size() * sizeof(T), 0);
  validate_entry({.kind = OpKind::AllToAll,
                  .count = chunk,
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name()});
  std::vector<T> out(data.size());
  // Own chunk moves locally; the program sends from `data` into `out`.
  const auto own = static_cast<std::ptrdiff_t>(rank_ * chunk);
  std::copy_n(data.begin() + own, chunk, out.begin() + own);
  run_rounds(alltoall_rounds(p, rank_), Coll::Gather,
             detail::BlockBuffer<T>{.src = data, .dst = out});
  return out;
}

template <typename T>
std::vector<T> Comm::allgatherv(std::span<const T> local) {
  // Per-rank counts legitimately differ; only kind and element type match.
  obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "allgatherv");
  obs_span.set_args(local.size() * sizeof(T), 0);
  validate_entry({.kind = OpKind::AllGatherV,
                  .count = CollectiveDesc::kAnyCount,
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name()});
  std::vector<T> out;
  run_rounds(allgather_rounds(AllGatherAlgo::Ring, size(), rank_),
             Coll::AllGather, detail::learned(size(), rank_, local, &out));
  return out;
}

template <typename T, typename Op>
void Comm::allreduce(std::span<T> data, Op op, AllReduceAlgo algo) {
  obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "allreduce");
  obs_span.set_args(data.size() * sizeof(T), 0);
  validate_entry({.kind = OpKind::AllReduce,
                  .count = data.size(),
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .reduce_op = typeid(Op).name(),
                  .algo = static_cast<int>(algo)});
  run_rounds(allreduce_rounds(algo, size(), rank_), Coll::AllReduce,
             detail::BlockBuffer<T>{.src = data, .dst = data}, op);
}

template <typename T, typename Op>
std::vector<T> Comm::reduce_scatter(std::span<const T> data, Op op) {
  obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "reduce_scatter");
  obs_span.set_args(data.size() * sizeof(T), 0);
  validate_entry({.kind = OpKind::ReduceScatter,
                  .count = data.size(),
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .reduce_op = typeid(Op).name()});
  const int p = size();
  std::vector<T> work(data.begin(), data.end());
  run_rounds(reduce_scatter_rounds(p, rank_), Coll::ReduceScatter,
             detail::BlockBuffer<T>{.src = work, .dst = work}, op);
  const std::size_t lo = block_lo(work.size(), p, rank_);
  const std::size_t hi = block_lo(work.size(), p, rank_ + 1);
  return {work.begin() + static_cast<std::ptrdiff_t>(lo),
          work.begin() + static_cast<std::ptrdiff_t>(hi)};
}

template <typename T>
std::vector<T> Comm::gather(std::span<const T> local, int root) {
  const int p = size();
  MBD_CHECK(root >= 0 && root < p);
  // Linear gather concatenates whatever each rank offers; sizes may differ.
  obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "gather");
  obs_span.set_args(local.size() * sizeof(T), 0);
  validate_entry({.kind = OpKind::Gather,
                  .count = CollectiveDesc::kAnyCount,
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .root = root});
  std::vector<T> out;
  run_rounds(gather_rounds(p, rank_, root), Coll::Gather,
             detail::learned(p, rank_, local, rank_ == root ? &out : nullptr));
  return out;
}

template <typename T>
std::vector<T> Comm::scatter(std::span<const T> all, int root,
                             std::size_t chunk) {
  const int p = size();
  MBD_CHECK(root >= 0 && root < p);
  obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "scatter");
  obs_span.set_args(chunk * sizeof(T), 0);
  validate_entry({.kind = OpKind::Scatter,
                  .count = chunk,
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .root = root});
  std::vector<T> out(chunk);
  // The root sends the p chunks of `all`; a non-root rank's layout holds
  // only its own chunk, which is all of `out`.
  detail::BlockBuffer<T> buf{.src = all, .dst = out};
  for (int b = 0; b <= p; ++b) {
    const int chunks = rank_ == root ? b : static_cast<int>(b > rank_);
    buf.lo.push_back(static_cast<std::size_t>(chunks) * chunk);
  }
  if (rank_ == root) {
    MBD_CHECK_EQ(all.size(), chunk * static_cast<std::size_t>(p));
    std::copy_n(all.begin() + static_cast<std::ptrdiff_t>(rank_ * chunk),
                chunk, out.begin());
  }
  run_rounds(scatter_rounds(p, rank_, root), Coll::Scatter, std::move(buf));
  return out;
}

template <typename T, typename Op>
CollectiveHandle Comm::iallreduce(std::span<T> data, Op op) {
  validate_entry({.kind = OpKind::AllReduce,
                  .count = data.size(),
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .reduce_op = typeid(Op).name(),
                  .algo = static_cast<int>(AllReduceAlgo::Ring),
                  .nonblocking = true});
  if (size() == 1) return {};
  return start_rounds(allreduce_rounds(AllReduceAlgo::Ring, size(), rank_),
                      Coll::AllReduce,
                      detail::BlockBuffer<T>{.src = data, .dst = data}, op,
                      "iallreduce",
                      "iallreduce(count=" + std::to_string(data.size()) + ')');
}

template <typename T>
CollectiveHandle Comm::iallgather(std::span<const T> local, std::span<T> out) {
  validate_entry({.kind = OpKind::AllGather,
                  .count = local.size(),
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .algo = static_cast<int>(AllGatherAlgo::Ring),
                  .nonblocking = true});
  const std::size_t m = local.size();
  MBD_CHECK_EQ(out.size(), m * static_cast<std::size_t>(size()));
  std::copy(local.begin(), local.end(),
            out.begin() + static_cast<std::ptrdiff_t>(rank_ * m));
  if (size() == 1) return {};
  return start_rounds(allgather_rounds(AllGatherAlgo::Ring, size(), rank_),
                      Coll::AllGather,
                      detail::BlockBuffer<T>{.src = out, .dst = out},
                      detail::NoCombine{}, "iallgather",
                      "iallgather(count=" + std::to_string(m) + ')');
}

template <typename T>
CollectiveHandle Comm::iallgatherv(std::span<const T> local,
                                   std::vector<T>* out) {
  MBD_CHECK(out != nullptr);
  validate_entry({.kind = OpKind::AllGatherV,
                  .count = CollectiveDesc::kAnyCount,
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .nonblocking = true});
  if (size() == 1) {
    out->assign(local.begin(), local.end());
    return {};
  }
  return start_rounds(
      allgather_rounds(AllGatherAlgo::Ring, size(), rank_), Coll::AllGather,
      detail::learned(size(), rank_, local, out), detail::NoCombine{},
      "iallgatherv",
      "iallgatherv(local_count=" + std::to_string(local.size()) + ')');
}

template <typename T>
CollectiveHandle Comm::isendrecv(int dst, std::span<const T> send_data,
                                 int src, std::vector<T>* recv_out, int tag) {
  MBD_CHECK(recv_out != nullptr);
  MBD_CHECK_MSG(tag >= 0 && tag < kInternalTagBase,
                "isendrecv tag " << tag << " outside the user tag space");
  send_bytes(dst, as_bytes_span(send_data), tag, Coll::PointToPoint);
  return make_handle(
      std::make_unique<detail::IRecvOp<T>>(*this, src, tag, recv_out),
      "isendrecv",
      "isendrecv(from=" + std::to_string(global_rank(src)) +
          ", tag=" + std::to_string(tag) + ')');
}

}  // namespace mbd::comm
