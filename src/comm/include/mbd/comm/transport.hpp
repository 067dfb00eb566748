// Transport strategy for the mbd::comm runtime.
//
// A Transport is the one seam between a Comm and the wire: every payload a
// rank sends ends its journey in a call to Transport::deposit, which must
// land the message in the *destination* rank's mailbox. Everything above the
// deposit — collective schedules, per-channel seq/dedup, receiver-driven
// retransmission, the validator, schedule recording, fault injection, obs
// spans — is transport-agnostic and works unchanged over any backend:
//
//  * InProcessTransport (the default): every rank is a thread of this
//    process, the fabric owns all P mailboxes, and deposit is a direct
//    Mailbox::push. This is the original thread-backed fabric.
//  * TcpTransport (mbd/comm/transport_tcp.hpp): each process hosts one rank;
//    deposit serializes the message into a length-prefixed frame and writes
//    it to the destination's socket, and a per-peer receive loop deposits
//    inbound frames into the single local mailbox.
//
// The transport also owns the two failure-path duties that only make sense
// off-process: surfacing a dead peer as a RankFailure (take_failure) and
// forwarding a local rank's primary failure to the peers (broadcast_failure)
// so a distributed World::run_restartable can coordinate a restart.
#pragma once

#include <exception>
#include <string>
#include <string_view>

#include "mbd/comm/mailbox.hpp"

namespace mbd::comm {

namespace detail {
struct Fabric;
}  // namespace detail

/// Rough latency class of a transport. The validator's recv watchdog
/// multiplies its default (or MBD_WATCHDOG_MS-supplied) deadline by
/// watchdog_scale(latency) so socket-backed runs do not need every CI job to
/// hand-tune the environment; an explicit World::set_validation_timeout is
/// never scaled.
enum class TransportLatency : int {
  InProcess = 0,   ///< same-process thread handoff (scale 1)
  LoopbackSocket,  ///< kernel loopback TCP, one host (scale 5)
  Network,         ///< real NIC between hosts (scale 15)
};

/// Watchdog deadline multiplier for a latency class.
int watchdog_scale(TransportLatency latency);

/// Human-readable name of a latency class.
std::string_view transport_latency_name(TransportLatency latency);

/// Delivery strategy behind the mailbox API. One instance is shared by every
/// Fabric a World builds (run_restartable rebuilds the fabric but keeps the
/// transport), so implementations must tolerate attach() re-pointing them at
/// a fresh fabric between runs. All methods except attach/begin_epoch are
/// called concurrently from rank threads and must be thread-safe.
class Transport {
 public:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;

  virtual std::string_view name() const = 0;
  virtual TransportLatency latency() const = 0;

  /// Land `msg` in global rank `dst`'s mailbox. For a remote `dst` this is a
  /// wire send; the peer's receive loop performs the actual Mailbox::push,
  /// so seq dedup and in-order delivery happen at the destination exactly as
  /// in-process. Throws PoisonedError if the wire to `dst` is down.
  virtual void deposit(int dst, Message msg) = 0;

  /// Receiver-side retransmission request from global rank `dst`'s blocking
  /// pop retry hook: ask every *remote* peer to flush anything its fault
  /// injector swallowed or deferred for `dst`. The local injector is always
  /// asked directly by Comm; in-process that covers every sender, so the
  /// default is a no-op.
  virtual void request_retransmit(int dst) { (void)dst; }

  /// Tell remote peers this process's rank failed with `what` so they can
  /// surface a RankFailure too (coordinated restart). No-op in-process: all
  /// ranks share the fabric and see the poison directly.
  virtual void broadcast_failure(const std::string& what) { (void)what; }

  /// A transport-detected failure (peer death, mid-run disconnect, remote
  /// broadcast_failure), cleared on read. Distributed World::run rethrows
  /// this in preference to the local rank's secondary PoisonedError wakeup.
  virtual std::exception_ptr take_failure() { return nullptr; }

  /// Point this transport at the fabric whose mailboxes it feeds. Called
  /// from the Fabric constructor — for a rebuild (run_restartable), strictly
  /// after begin_epoch(next) so frames buffered for the new epoch flush into
  /// the fresh mailboxes and stale ones are dropped. attach(nullptr)
  /// detaches: the rebuild/repair paths do this *before* begin_epoch so a
  /// fast peer's new-epoch frames buffer instead of landing in the dying
  /// fabric's mailboxes (where they would be lost).
  virtual void attach(detail::Fabric* fabric) { fabric_ = fabric; }

  /// Undo attach(fabric) if this transport still feeds `fabric`. Called
  /// from the Fabric destructor, so no inbound frame lands in a destroyed
  /// fabric; a fabric that a rebuild already replaced is left alone.
  virtual void detach(detail::Fabric* fabric) {
    if (fabric_ == fabric) fabric_ = nullptr;
  }

  /// Advance to restart attempt `epoch`: drop frames from older epochs,
  /// clear any recorded failure. Called with no local rank threads running.
  virtual void begin_epoch(int epoch) { (void)epoch; }

  /// Re-point logical slot `slot` at physical participant `spare` (spare
  /// promotion). In-process the slot/participant distinction does not exist
  /// — mailboxes are indexed by logical rank and the promoted spare is just
  /// a fresh thread — so the default is a no-op. The TCP transport remaps
  /// its slot-to-connection table and marks the dead peer so stale EOFs from
  /// it are ignored. Called with no local rank threads running, before
  /// begin_epoch of the repaired epoch's first exchange.
  virtual void promote(int slot, int spare) {
    (void)slot;
    (void)spare;
  }

 protected:
  detail::Fabric* fabric_ = nullptr;
};

/// The default thread-backed transport: all ranks live in this process and
/// deposit is a direct push into the shared fabric's destination mailbox.
class InProcessTransport final : public Transport {
 public:
  std::string_view name() const override { return "in-process"; }
  TransportLatency latency() const override {
    return TransportLatency::InProcess;
  }
  void deposit(int dst, Message msg) override;
};

}  // namespace mbd::comm
