// Runtime collective-call validation for the mbd::comm runtime.
//
// Standard MPI semantics require every rank of a communicator to call the
// same sequence of collectives with compatible arguments. Violations in a
// message-passing runtime do not crash — they hang, or worse, silently
// mis-match payloads. The Validator turns both failure modes into precise,
// rank-attributed diagnostics:
//
//  * Every collective entry registers a descriptor (op kind, element type,
//    count, algorithm, reduce op, root) in a per-context rendezvous slot.
//    The first rank whose descriptor disagrees with the slot throws a
//    ValidationError naming both ranks and both calls — e.g. "rank 3 called
//    allreduce(count=1024, ...) but rank 0 called allgather(count=512, ...)"
//    — instead of deadlocking inside the collective's message schedule.
//  * A watchdog bounds every blocking Mailbox receive: a rank blocked past a
//    configurable timeout throws a probable-deadlock report that dumps each
//    rank's last-known collective so the missing or extra call is evident.
//
// Enabled via World::enable_validation(); on by default in Debug builds
// (!NDEBUG). Overhead is one mutex-protected map operation per collective
// entry — negligible next to the payload copies the transport already does.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "mbd/support/check.hpp"

namespace mbd::comm {

/// Thrown by the validator on a collective-argument mismatch.
class ValidationError : public ::mbd::Error {
 public:
  using Error::Error;
};

/// The operation kinds the validator distinguishes. Finer-grained than the
/// Coll traffic classes: allgatherv has different matching rules than
/// allgather, and split/alltoall are validated even though their traffic is
/// recorded under other classes.
enum class OpKind : int {
  Barrier = 0,
  Broadcast,
  Reduce,
  AllGather,
  AllGatherV,
  AllReduce,
  ReduceScatter,
  Gather,
  Scatter,
  AllToAll,
  Split,
  kCount
};

/// Human-readable name of an OpKind value.
std::string_view op_kind_name(OpKind k);

/// What one rank claims about the collective it is entering. Two ranks match
/// when every field agrees; `count == kAnyCount` marks operations whose
/// element counts may legitimately differ across ranks (allgatherv, gather).
struct CollectiveDesc {
  /// Sentinel count for collectives with legitimately rank-varying sizes.
  static constexpr std::size_t kAnyCount = ~std::size_t{0};

  OpKind kind = OpKind::Barrier;
  std::size_t count = 0;         ///< elements per rank, or kAnyCount
  std::size_t elem_size = 0;     ///< sizeof(T), 0 if no payload
  std::string_view elem_type{};  ///< typeid(T).name(), empty if no payload
  std::string_view reduce_op{};  ///< typeid(Op).name(), empty if no reduction
  int algo = -1;                 ///< AllGatherAlgo/AllReduceAlgo value, or -1
  int root = -1;                 ///< root rank, or -1 for rootless ops
  /// Initiated via the nonblocking API. Part of the match so a rank calling
  /// allreduce() against peers calling iallreduce() (whose tags live in a
  /// different space and would never pair up) fails loudly instead of
  /// hanging.
  bool nonblocking = false;

  bool matches(const CollectiveDesc& other) const {
    return kind == other.kind && count == other.count &&
           elem_size == other.elem_size && elem_type == other.elem_type &&
           reduce_op == other.reduce_op && algo == other.algo &&
           root == other.root && nonblocking == other.nonblocking;
  }

  /// "allreduce(count=1024, elem=float, op=std::plus<float>, algo=0)".
  std::string describe() const;
};

/// Shared rendezvous state for one World; owned by the Fabric and consulted
/// by every Comm on collective entry. Thread-safe.
class Validator {
 public:
  /// Default watchdog timeout. Generous so heavily oversubscribed sanitizer
  /// runs never trip it; tests that provoke deadlocks lower it. The
  /// MBD_WATCHDOG_MS environment variable (a positive integer, read at
  /// construction) overrides this default so CI jobs can lengthen it
  /// without code edits; World::set_validation_timeout overrides both.
  static constexpr std::chrono::milliseconds kDefaultTimeout{120'000};

  explicit Validator(int world_size);

  /// Register `comm_rank` (global rank `global_rank`) entering a collective
  /// described by `desc` on communicator `context` of `comm_size` ranks.
  /// Throws ValidationError if the descriptor disagrees with the one the
  /// first-arriving rank registered for the same operation slot.
  void on_enter(std::uint64_t context, int comm_rank, int global_rank,
                int comm_size, const CollectiveDesc& desc);

  /// One user point-to-point operation, kept raw: only deadlock_report()
  /// formats it, so the hot send/recv path builds no string.
  struct P2pOp {
    enum class Dir : std::uint8_t { None, Send, Recv };
    Dir dir = Dir::None;
    int peer = 0;  ///< global rank of the destination or source
    int tag = 0;
    std::size_t bytes = 0;  ///< payload size (sends only)
  };

  /// Record user point-to-point activity (for the deadlock report only).
  void on_p2p(int global_rank, const P2pOp& op);

  /// Track a nonblocking operation from initiation to completion. The token
  /// returned by on_nb_initiated is surrendered via on_nb_completed when the
  /// handle's wait()/test() observes completion; anything still tracked is a
  /// leaked or un-waited CollectiveHandle and is reported by name both in
  /// deadlock_report() and at the end of World::run.
  std::uint64_t on_nb_initiated(int global_rank, std::string what);
  void on_nb_completed(int global_rank, std::uint64_t token);
  /// RAII cancellation: ~CollectiveHandle calls this when an incomplete
  /// handle is destroyed during exception unwind — the operation stops
  /// being tracked (it is an abandonment the unwind explains, not a leak)
  /// and the cancellation is counted so World::run can drain the parked
  /// schedule messages after the ranks join. Tolerates unknown tokens.
  void on_nb_cancelled(int global_rank, std::uint64_t token);
  /// Cancellations since the last call (resets the counter).
  std::uint64_t take_cancelled();
  /// "rank R: <op>" lines for every initiated-but-incomplete nonblocking
  /// operation, in initiation order; empty when all handles completed.
  std::vector<std::string> outstanding_nonblocking() const;

  /// Watchdog timeout for blocking receives. An explicit set_timeout is
  /// exact: it wins over the default, the environment override, and the
  /// transport latency scale alike.
  void set_timeout(std::chrono::milliseconds t);
  std::chrono::milliseconds timeout() const;

  /// Scale the default (or MBD_WATCHDOG_MS) deadline by the transport's
  /// latency class (see watchdog_scale in mbd/comm/transport.hpp), so
  /// socket-backed runs get a proportionally longer watchdog without every
  /// CI job overriding the environment. Never applied on top of an explicit
  /// set_timeout.
  void set_timeout_scale(int scale);

  /// Observe only this process's rank (multi-process worlds): cross-rank
  /// collective rendezvous matching is skipped — the peers' descriptors
  /// live in other processes, so a slot would never retire — while
  /// last-activity tracking, the recv watchdog, and nonblocking handle-leak
  /// detection stay on.
  void set_local_only(bool local_only);
  bool local_only() const;

  /// Copy timeout / scale / scope configuration from `other` (fabric
  /// rebuild under World::run_restartable).
  void adopt_settings(const Validator& other);

  /// Drop all transient rendezvous state — in-flight collective slots,
  /// last-activity lines, tracked nonblocking handles, and the cancellation
  /// counter — while keeping timeout / scale / scope settings and the token
  /// counter. In-place fabric repair for spare promotion: the next epoch
  /// starts its collective sequence from slot 0. Only call with no rank
  /// threads running.
  void reset_transient();

  /// Diagnostic for a rank whose blocking receive exceeded the watchdog
  /// timeout: names the stuck receive and dumps every rank's last-known
  /// collective.
  std::string deadlock_report(int global_rank, std::uint64_t context, int src,
                              int tag) const;

 private:
  // One collective operation some ranks have entered but not all.
  struct InflightOp {
    CollectiveDesc desc;
    int first_comm_rank;  // who registered the slot (for diagnostics)
    int arrived;          // ranks that have entered so far
  };
  // Per-communicator-context rendezvous state. Ranks of a communicator each
  // execute the same ordered sequence of collectives, so the k-th entry of
  // every rank must land in the k-th slot; slots retire once all ranks of
  // the context have arrived.
  struct ContextState {
    std::uint64_t retired = 0;            // fully-matched ops, dropped
    std::deque<InflightOp> inflight;      // ops entered by a proper subset
    std::vector<std::uint64_t> next_seq;  // per comm rank: next op index
  };

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, ContextState> contexts_;
  std::vector<std::string> last_collective_;  // per global rank
  std::vector<P2pOp> last_p2p_;               // per global rank
  // Per global rank: token -> description of in-flight nonblocking ops.
  // std::map keeps initiation order (tokens are issued monotonically).
  std::vector<std::map<std::uint64_t, std::string>> nb_inflight_;
  std::uint64_t next_nb_token_ = 1;
  std::uint64_t cancelled_ = 0;  // nb ops abandoned during unwind
  std::atomic<std::chrono::milliseconds::rep> timeout_ms_;
  std::atomic<int> timeout_scale_{1};
  std::atomic<bool> explicit_timeout_{false};
  std::atomic<bool> local_only_{false};
};

}  // namespace mbd::comm
