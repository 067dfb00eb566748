// Shared state behind a World: one mailbox per global rank plus traffic
// counters. Internal to mbd::comm; user code holds Comm and World only.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "mbd/comm/fault.hpp"
#include "mbd/comm/mailbox.hpp"
#include "mbd/comm/schedule_recorder.hpp"
#include "mbd/comm/stats.hpp"
#include "mbd/comm/trace.hpp"
#include "mbd/comm/transport.hpp"
#include "mbd/comm/validator.hpp"

namespace mbd::comm::detail {

struct Fabric {
  explicit Fabric(int size)
      : Fabric(size, std::make_shared<InProcessTransport>()) {}

  // Distributed form: the transport is shared across fabric rebuilds
  // (run_restartable) and across the Worlds of one process; construction
  // re-points it at this fabric's mailboxes.
  Fabric(int size, std::shared_ptr<Transport> t)
      : mailboxes(static_cast<std::size_t>(size)), transport(std::move(t)) {
    transport->attach(this);
  }
  // Detach before the mailboxes go: a socket transport's receive threads
  // outlive every fabric they feed.
  ~Fabric() { transport->detach(this); }
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  std::vector<Mailbox> mailboxes;
  // Delivery strategy: every Comm::send_bytes ends in transport->deposit.
  // In-process this is a direct Mailbox::push; socket transports serialize
  // to the destination process instead. Never null.
  std::shared_ptr<Transport> transport;
  StatsCounters counters;
  std::atomic<bool> poisoned{false};

  // Optional execution trace: allocated by World::enable_tracing(). Each
  // rank appends only to its own event list; message ids come from the
  // shared counter.
  std::unique_ptr<Trace> trace;
  std::atomic<std::uint64_t> next_msg_id{1};

  // Optional collective-call validator: allocated by
  // World::enable_validation() (default-on in Debug builds) strictly
  // before rank threads exist, so the plain pointer reads during a run
  // need no synchronization.
  std::unique_ptr<Validator> validator;

  // Optional schedule recording: allocated by
  // World::enable_schedule_recording() under the same publication rule as
  // the validator (strictly before rank threads exist). Each rank appends
  // only to its own log.
  std::unique_ptr<ScheduleRecording> recorder;

  // Optional fault injector: installed by World::install_faults strictly
  // before rank threads exist (same publication rule as the validator).
  // Shared so World::run_restartable can move it onto a fresh Fabric while
  // its cumulative event log survives.
  std::shared_ptr<FaultInjector> injector;

  bool tracing() const { return trace != nullptr; }

  // Release/acquire pairing with the loads in Comm::send_bytes and
  // World::run: a rank that observes poisoned==true is guaranteed to also
  // observe every write the poisoning thread made before failing (its
  // error slot in particular). The per-mailbox poisoned_ flag is mutex
  // protected and needs no ordering here; this flag alone gates the
  // fast-path throw in send_bytes.
  void poison_all() {
    poisoned.store(true, std::memory_order_release);
    for (auto& mb : mailboxes) mb.poison();
  }
};

}  // namespace mbd::comm::detail
