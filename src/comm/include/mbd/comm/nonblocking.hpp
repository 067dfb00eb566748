// Nonblocking collective handles for the mbd::comm runtime.
//
// Comm::iallreduce / iallgather / iallgatherv / isendrecv return a
// CollectiveHandle immediately after depositing the first round of messages
// into the mailbox fabric; the rest of the message schedule advances inside
// test() (consume only what has already been delivered) and wait() (run the
// schedule to completion, blocking in recv). Because sends are buffered,
// a rank that computes between initiation and wait never stalls its peers:
// every peer can drain this rank's round-k message from its mailbox and post
// round k+1 without a rendezvous — that is what makes comm/compute overlap
// executable on this fabric rather than just priced by the cost model.
//
// Progress semantics (single-threaded ranks, no hidden progress thread):
//  * initiation posts this rank's round-0 send eagerly but consumes nothing —
//    receives only ever happen inside test()/wait(), so their positions in a
//    recorded trace are deterministic program points rather than accidents of
//    host thread scheduling (replay_trace depends on this),
//  * test() is the per-rank progress helper — call it between compute blocks
//    to advance all rounds whose inbound messages have already arrived,
//  * wait() finishes the remaining rounds with blocking receives.
//
// Validator semantics: the initiating call rendezvous-matches a
// CollectiveDesc (with .nonblocking = true, so a blocking/nonblocking
// mismatch across ranks is a named ValidationError, not a hang) and the
// handle is tracked until completion. A handle that is destroyed — or still
// pending when World::run joins — surfaces as a "leaked CollectiveHandle"
// error naming the operation, distinct from a plain recv-stall deadlock.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace mbd::comm {

class Validator;
struct ScheduleRecording;

namespace detail {

/// How far one advance() call may drive a pending operation's schedule.
enum class Drive {
  Post,   ///< post the current round's send only; consume nothing
  Poll,   ///< consume rounds whose inbound messages already arrived
  Block,  ///< run to completion, blocking in recv (watchdog applies)
};

/// State machine for one in-flight nonblocking operation. The concrete ops
/// live in comm.hpp, where the Comm definition is available: the round
/// program interpreter (detail::RoundRunner, behind iallreduce, iallgather
/// and iallgatherv) and isendrecv's pending receive (detail::IRecvOp).
struct PendingOp {
  PendingOp() = default;
  PendingOp(const PendingOp&) = delete;
  PendingOp& operator=(const PendingOp&) = delete;
  virtual ~PendingOp() = default;

  /// Advance the message schedule as far as `drive` allows. Returns true
  /// once the operation has completed.
  virtual bool advance(Drive drive) = 0;

  // Completion accounting, filled in by Comm::make_handle when a Validator
  // is attached to the fabric.
  Validator* validator = nullptr;
  int global_rank = -1;
  std::uint64_t nb_token = 0;
  // Schedule-recording hookup, filled in by Comm::make_handle when the World
  // is recording: the NbDone/NbCancel event closing this op's NbPost goes to
  // ranks[rec_rank] with token rec_token.
  ScheduleRecording* recorder = nullptr;
  int rec_rank = -1;
  std::uint64_t rec_token = 0;
  // Profiler flow id linking this op's CollPost span to the CollWait/NbDrain
  // span that completes it (0 when profiling is off). Deterministic: derived
  // from (rank, per-thread counter), not from the validator's global token.
  std::uint64_t obs_flow = 0;
  const char* obs_what = "";  ///< static label for completion spans
};

}  // namespace detail

/// Move-only completion handle for a nonblocking operation. Default state is
/// an already-complete (empty) operation. The buffers passed to the
/// initiating call must stay alive and unmodified until done().
class CollectiveHandle {
 public:
  CollectiveHandle() = default;
  CollectiveHandle(CollectiveHandle&&) noexcept = default;
  CollectiveHandle& operator=(CollectiveHandle&&) noexcept = default;
  CollectiveHandle(const CollectiveHandle&) = delete;
  CollectiveHandle& operator=(const CollectiveHandle&) = delete;
  // Destroying an incomplete handle during exception unwind *cancels* the
  // operation: the validator stops tracking it (the unwind explains the
  // abandonment — e.g. a peer crashed mid-Overlapped-backward and this
  // rank's drain threw PoisonedError) and World::run drains the parked
  // schedule messages after the ranks join instead of reporting a leak.
  // Outside an unwind, destroying an incomplete handle is still a leak and
  // is reported by name at the end of World::run. Never throws.
  ~CollectiveHandle();

  /// True once the operation has completed (empty handles are complete).
  bool done() const { return op_ == nullptr || completed_; }

  /// Advance without blocking: consume any rounds whose messages have
  /// arrived. Returns done(). Safe to call repeatedly.
  bool test();

  /// Run the operation to completion (blocking receives; the validator's
  /// recv watchdog applies). Idempotent.
  void wait();

 private:
  friend class Comm;
  explicit CollectiveHandle(std::unique_ptr<detail::PendingOp> op)
      : op_(std::move(op)) {}

  void finish();  // mark complete + notify the validator

  std::unique_ptr<detail::PendingOp> op_;
  bool completed_ = false;
};

/// Per-rank progress helper: test() every handle once. Returns true when all
/// are done. Call between compute blocks to keep multiple outstanding
/// operations moving.
bool progress_all(std::span<CollectiveHandle> handles);

}  // namespace mbd::comm
