#include "mbd/comm/world.hpp"

#include <chrono>
#include <exception>
#include <sstream>
#include <thread>
#include <vector>

#include "mbd/obs/profiler.hpp"
#include "mbd/support/check.hpp"

namespace mbd::comm {
namespace {

bool is_poison_error(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const PoisonedError&) {
    return true;
  } catch (...) {
    return false;
  }
}

std::string describe_error(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace

World::World(int size) : size_(size) {
  MBD_CHECK_GT(size, 0);
  fabric_ = std::make_shared<detail::Fabric>(size);
#ifndef NDEBUG
  enable_validation();
#endif
}

World::World(int size, int local_rank, std::shared_ptr<Transport> transport)
    : size_(size), local_rank_(local_rank) {
  MBD_CHECK_GT(size, 0);
  MBD_CHECK_MSG(local_rank >= 0 && local_rank < size,
                "local rank " << local_rank << " out of range for world size "
                              << size);
  MBD_CHECK_MSG(transport != nullptr,
                "a distributed World needs a connected transport");
  fabric_ = std::make_shared<detail::Fabric>(size, std::move(transport));
#ifndef NDEBUG
  enable_validation();
#endif
}

const Transport& World::transport() const { return *fabric_->transport; }

void World::configure_validator(Validator& v) const {
  v.set_timeout_scale(watchdog_scale(fabric_->transport->latency()));
  if (distributed()) v.set_local_only(true);
}

void World::run(const std::function<void(Comm&)>& fn) {
  MBD_CHECK_MSG(!fabric_->poisoned.load(std::memory_order_acquire),
                "World was poisoned by a previous failed run; create a new one");
  const auto members = std::make_shared<const std::vector<int>>([&] {
    std::vector<int> m(static_cast<std::size_t>(size_));
    for (int i = 0; i < size_; ++i) m[static_cast<std::size_t>(i)] = i;
    return m;
  }());

  // Thread-backed worlds spawn every rank; a distributed world spawns only
  // the one rank this process hosts (its peers are other processes reached
  // through the transport).
  const std::vector<int> local_ranks = [&] {
    if (distributed()) return std::vector<int>{local_rank_};
    std::vector<int> all(static_cast<std::size_t>(size_));
    for (int i = 0; i < size_; ++i) all[static_cast<std::size_t>(i)] = i;
    return all;
  }();

  std::vector<std::exception_ptr> errors(local_ranks.size());
  std::vector<std::thread> threads;
  threads.reserve(local_ranks.size());
  for (std::size_t i = 0; i < local_ranks.size(); ++i) {
    const int r = local_ranks[i];
    threads.emplace_back([&, i, r] {
      obs::bind_thread(r);
      try {
        Comm comm(fabric_, /*context=*/1, members, r);
        fn(comm);
      } catch (...) {
        errors[i] = std::current_exception();
        fabric_->poison_all();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (distributed()) {
    // A transport-detected failure (peer process died mid-run, or a remote
    // rank broadcast its primary error) is the cause; the local rank's
    // PoisonedError is merely its wakeup. Rethrow the cause — always a
    // RankFailure, so run_restartable coordinates the restart off-process.
    if (const auto transport_failure = fabric_->transport->take_failure()) {
      std::rethrow_exception(transport_failure);
    }
    if (errors[0]) {
      // This process failed first: tell the peers why before rethrowing, so
      // their runs fail with a named RankFailure instead of a stuck recv.
      if (!is_poison_error(errors[0])) {
        fabric_->transport->broadcast_failure(describe_error(errors[0]));
      }
      std::rethrow_exception(errors[0]);
    }
  } else {
    // Rethrow the primary failure: the first rank (by rank order) whose
    // error is not a secondary PoisonedError wakeup. Pure-poison error sets
    // (all ranks woken by an external poisoner) fall back to the first
    // error.
    std::exception_ptr first;
    for (const auto& e : errors) {
      if (!e) continue;
      if (!first) first = e;
      if (!is_poison_error(e)) {
        std::rethrow_exception(e);
      }
    }
    if (first) std::rethrow_exception(first);
  }
  if (Validator* v = fabric_->validator.get()) {
    // Handles cancelled during exception unwind (the RAII path in
    // ~CollectiveHandle) are not leaks, but their remaining schedule
    // messages are still parked in the mailboxes and would cross-match a
    // later run's tag-block reuse. Drain everything so the World stays
    // usable after a caught-and-recovered failure.
    if (v->take_cancelled() > 0) {
      for (auto& mb : fabric_->mailboxes) mb.clear();
      if (fabric_->injector) fabric_->injector->drop_pending();
    }
    // A handle that was initiated but never waited leaves schedule messages
    // parked in the mailboxes, corrupting the next run. Surface it as a
    // named error (which op, which rank) rather than a later generic
    // deadlock.
    const auto leaked = v->outstanding_nonblocking();
    if (!leaked.empty()) {
      std::ostringstream os;
      os << "leaked CollectiveHandle: " << leaked.size()
         << " nonblocking operation(s) were initiated but never completed "
            "(wait() or test()-to-done every handle before it is destroyed):";
      for (const auto& l : leaked) os << "\n  " << l;
      throw ValidationError(os.str());
    }
  }
}

RecoveryReport World::run_restartable(const std::function<void(Comm&)>& fn,
                                      int max_restarts) {
  MBD_CHECK(max_restarts >= 0);
  RecoveryReport rep;
  for (int attempt = 0;; ++attempt) {
    try {
      run(fn);
      if (fabric_->injector) rep.events = fabric_->injector->events();
      return rep;
    } catch (const RankFailure& e) {
      if (attempt >= max_restarts) throw;
      ++rep.restarts;
      std::ostringstream os;
      os << "attempt " << attempt << " failed (" << e.what()
         << "); restarting as epoch " << attempt + 1;
      rep.log.push_back(os.str());
      const auto t0 = std::chrono::steady_clock::now();
      rebuild_fabric(attempt + 1);
      rep.repair_ns.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
  }
}

void World::set_spares(int spares) {
  MBD_CHECK(spares >= 0);
  spares_ = spares;
}

RecoveryReport World::run_promotable(const std::function<void(Comm&)>& fn) {
  RecoveryReport rep;
  for (int attempt = 0;; ++attempt) {
    try {
      run(fn);
      if (fabric_->injector) rep.events = fabric_->injector->events();
      return rep;
    } catch (const RankFailure& e) {
      const int failed = e.failed_rank();
      // No spare left, an unattributed failure (no slot to refill), or this
      // process *is* the victim (its slot is being given away): the failure
      // is not recoverable by promotion here.
      if (static_cast<int>(rep.promotions.size()) >= spares_) throw;
      if (failed < 0 || failed >= size_) throw;
      if (distributed() && failed == local_rank_) throw;
      const int next_epoch = attempt + 1;
      // Spares are consumed in participant-id order: every survivor (and the
      // spare itself, off-process) computes the same id without agreement
      // traffic.
      const int spare = size_ + static_cast<int>(rep.promotions.size());
      const auto t0 = std::chrono::steady_clock::now();
      fabric_->transport->promote(failed, spare);
      repair_fabric_in_place(next_epoch);
      rep.repair_ns.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
      std::ostringstream os;
      os << "attempt " << attempt << " failed (" << e.what()
         << "); promoted spare " << spare << " into rank " << failed
         << "'s slot for epoch " << next_epoch;
      rep.log.push_back(os.str());
      rep.promotions.push_back({next_epoch, failed, spare, e.what()});
    }
  }
}

void World::repair_fabric_in_place(int next_epoch) {
  // The surgical counterpart of rebuild_fabric: nothing is reallocated and
  // no fabric teardown happens. Only the per-rank mailbox state (reset to a
  // fresh epoch for every slot — the dead rank's queued frames vanish, the
  // survivors' sequence cursors restart at 1) and the transient
  // validator/trace/recorder state are rebuilt. Survivors keep their
  // process, threads-to-be, transport connections, and injector; the
  // promoted spare simply occupies the dead slot next run.
  const bool prof = obs::profiling_enabled();
  const std::uint64_t t0 = prof ? obs::now_ns() : 0;
  // Same ordering contract as rebuild_fabric: detach (so frames from
  // already-promoted fast peers buffer instead of landing in mailboxes that
  // are about to be reset), then advance the transport epoch — stale frames
  // and late PeerFailure ghosts of the failed epoch drop — and attach last,
  // flushing the buffered frames into the reset mailboxes.
  fabric_->transport->attach(nullptr);
  fabric_->transport->begin_epoch(next_epoch);
  for (auto& mb : fabric_->mailboxes) mb.reset();
  fabric_->poisoned.store(false, std::memory_order_release);
  fabric_->next_msg_id.store(1, std::memory_order_relaxed);
  fabric_->counters.reset();
  if (fabric_->validator) fabric_->validator->reset_transient();
  if (fabric_->trace) {
    for (auto& r : fabric_->trace->ranks) r.clear();
  }
  if (fabric_->recorder) {
    for (auto& r : fabric_->recorder->ranks) {
      r.events.clear();
      r.next_nb_token = 1;
    }
  }
  fabric_->transport->attach(fabric_.get());
  if (fabric_->injector) fabric_->injector->begin_epoch(next_epoch);
  if (prof) {
    obs::record_span(obs::SpanKind::Promotion, "repair_fabric", t0,
                     obs::now_ns(), /*flow=*/0,
                     static_cast<std::uint64_t>(next_epoch), 0);
  }
}

void World::rebuild_fabric(int next_epoch) {
  // Tear down the poisoned fabric and rebuild with the same configuration.
  // The transport and injector are shared across fabrics: the transport
  // detaches first (a peer that restarted faster may already be sending the
  // new epoch's frames, and depositing them into the dying fabric would lose
  // them — detached, they buffer), then advances its epoch (frames of the
  // failed epoch become stale and drop), and the buffered new-epoch frames
  // flush into the fresh mailboxes during attach. The injector's event log
  // is cumulative while its trigger state re-arms for the next epoch.
  fabric_->transport->attach(nullptr);
  fabric_->transport->begin_epoch(next_epoch);
  auto fresh = std::make_shared<detail::Fabric>(size_, fabric_->transport);
  if (fabric_->validator) {
    fresh->validator = std::make_unique<Validator>(size_);
    fresh->validator->adopt_settings(*fabric_->validator);
  }
  if (fabric_->trace) {
    auto t = std::make_unique<Trace>();
    t->ranks.resize(static_cast<std::size_t>(size_));
    fresh->trace = std::move(t);
  }
  if (fabric_->recorder) {
    fresh->recorder = std::make_unique<ScheduleRecording>(size_);
  }
  fresh->injector = fabric_->injector;
  fabric_ = std::move(fresh);
  if (fabric_->injector) fabric_->injector->begin_epoch(next_epoch);
}

void World::install_faults(FaultPlan plan, FaultConfig cfg) {
  MBD_CHECK_MSG(!fabric_->poisoned.load(std::memory_order_acquire),
                "cannot install faults on a poisoned World");
  auto injector = std::make_shared<FaultInjector>(std::move(plan), cfg, size_);
  // A socket transport's receive threads read the injector under the
  // transport's lock, and peers may already be running: detach around the
  // write (their frames buffer meanwhile) so no receive thread reads it.
  fabric_->transport->attach(nullptr);
  fabric_->injector = std::move(injector);
  fabric_->transport->attach(fabric_.get());
}

FaultInjector* World::fault_injector() const {
  return fabric_->injector.get();
}

StatsSnapshot World::stats() const { return fabric_->counters.snapshot(); }

void World::reset_stats() { fabric_->counters.reset(); }

void World::enable_tracing() {
  if (fabric_->trace) return;
  auto t = std::make_unique<Trace>();
  t->ranks.resize(static_cast<std::size_t>(size_));
  fabric_->trace = std::move(t);
}

const Trace& World::trace() const {
  static const Trace kEmpty{};
  return fabric_->trace ? *fabric_->trace : kEmpty;
}

void World::reset_trace() {
  if (!fabric_->trace) return;
  for (auto& r : fabric_->trace->ranks) r.clear();
}

void World::enable_schedule_recording() {
  if (fabric_->recorder) return;
  fabric_->recorder = std::make_unique<ScheduleRecording>(size_);
}

const ScheduleRecording& World::schedule_recording() const {
  static const ScheduleRecording kEmpty{};
  return fabric_->recorder ? *fabric_->recorder : kEmpty;
}

void World::reset_schedule_recording() {
  if (!fabric_->recorder) return;
  for (auto& r : fabric_->recorder->ranks) {
    r.events.clear();
    r.next_nb_token = 1;
  }
}

void World::enable_validation() {
  if (fabric_->validator) return;
  fabric_->validator = std::make_unique<Validator>(size_);
  configure_validator(*fabric_->validator);
}

void World::disable_validation() { fabric_->validator.reset(); }

bool World::validation_enabled() const {
  return fabric_->validator != nullptr;
}

void World::set_validation_timeout(std::chrono::milliseconds t) {
  enable_validation();
  fabric_->validator->set_timeout(t);
}

std::chrono::milliseconds World::validation_timeout() const {
  return fabric_->validator ? fabric_->validator->timeout()
                            : std::chrono::milliseconds{0};
}

}  // namespace mbd::comm
