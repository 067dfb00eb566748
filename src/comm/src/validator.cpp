#include "mbd/comm/validator.hpp"

#include <cxxabi.h>

#include <cstdlib>
#include <memory>
#include <sstream>

namespace mbd::comm {
namespace {

// Demangle a typeid name for diagnostics; falls back to the mangled form.
std::string demangle(std::string_view mangled) {
  if (mangled.empty()) return {};
  const std::string name(mangled);
  int status = 0;
  const std::unique_ptr<char, void (*)(void*)> out(
      abi::__cxa_demangle(name.c_str(), nullptr, nullptr, &status),
      std::free);
  return status == 0 && out ? std::string(out.get()) : name;
}

}  // namespace

std::string_view op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::Barrier: return "barrier";
    case OpKind::Broadcast: return "broadcast";
    case OpKind::Reduce: return "reduce";
    case OpKind::AllGather: return "allgather";
    case OpKind::AllGatherV: return "allgatherv";
    case OpKind::AllReduce: return "allreduce";
    case OpKind::ReduceScatter: return "reduce_scatter";
    case OpKind::Gather: return "gather";
    case OpKind::Scatter: return "scatter";
    case OpKind::AllToAll: return "alltoall";
    case OpKind::Split: return "split";
    case OpKind::kCount: break;
  }
  return "unknown";
}

std::string CollectiveDesc::describe() const {
  std::ostringstream os;
  os << op_kind_name(kind) << '(';
  const char* sep = "";
  if (kind != OpKind::Barrier && kind != OpKind::Split) {
    if (count == kAnyCount) {
      os << "count=<per-rank>";
    } else {
      os << "count=" << count;
    }
    sep = ", ";
  }
  if (!elem_type.empty()) {
    os << sep << "elem=" << demangle(elem_type);
    sep = ", ";
  }
  if (!reduce_op.empty()) {
    os << sep << "op=" << demangle(reduce_op);
    sep = ", ";
  }
  if (algo >= 0) {
    os << sep << "algo=" << algo;
    sep = ", ";
  }
  if (root >= 0) {
    os << sep << "root=" << root;
    sep = ", ";
  }
  if (nonblocking) os << sep << "nonblocking";
  os << ')';
  return os.str();
}

Validator::Validator(int world_size)
    : last_collective_(static_cast<std::size_t>(world_size)),
      last_p2p_(static_cast<std::size_t>(world_size)),
      nb_inflight_(static_cast<std::size_t>(world_size)),
      timeout_ms_(kDefaultTimeout.count()) {
  // Environment override: sanitizer CI jobs lengthen the watchdog without
  // code edits. Invalid or non-positive values are ignored; an explicit
  // set_timeout() call still wins (it runs after construction).
  if (const char* env = std::getenv("MBD_WATCHDOG_MS")) {  // NOLINT(concurrency-mt-unsafe)
    char* end = nullptr;
    const long long ms = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && ms > 0) {
      timeout_ms_.store(ms, std::memory_order_relaxed);
    }
  }
}

void Validator::set_timeout(std::chrono::milliseconds t) {
  MBD_CHECK_GT(t.count(), 0);
  timeout_ms_.store(t.count(), std::memory_order_relaxed);
  explicit_timeout_.store(true, std::memory_order_relaxed);
}

std::chrono::milliseconds Validator::timeout() const {
  const std::chrono::milliseconds base(
      timeout_ms_.load(std::memory_order_relaxed));
  if (explicit_timeout_.load(std::memory_order_relaxed)) return base;
  return base * timeout_scale_.load(std::memory_order_relaxed);
}

void Validator::set_timeout_scale(int scale) {
  MBD_CHECK_GT(scale, 0);
  timeout_scale_.store(scale, std::memory_order_relaxed);
}

void Validator::set_local_only(bool local_only) {
  local_only_.store(local_only, std::memory_order_relaxed);
}

bool Validator::local_only() const {
  return local_only_.load(std::memory_order_relaxed);
}

void Validator::adopt_settings(const Validator& other) {
  timeout_ms_.store(other.timeout_ms_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  timeout_scale_.store(other.timeout_scale_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  explicit_timeout_.store(
      other.explicit_timeout_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  local_only_.store(other.local_only_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
}

void Validator::reset_transient() {
  std::lock_guard lock(mu_);
  contexts_.clear();
  for (auto& s : last_collective_) s.clear();
  for (auto& op : last_p2p_) op = {};
  for (auto& per_rank : nb_inflight_) per_rank.clear();
  cancelled_ = 0;
}

void Validator::on_enter(std::uint64_t context, int comm_rank, int global_rank,
                         int comm_size, const CollectiveDesc& desc) {
  if (local_only_.load(std::memory_order_relaxed)) {
    // Single observable rank: there is no cross-rank rendezvous to match
    // (slots could never retire), but the last-activity line still feeds the
    // deadlock report.
    std::ostringstream act;
    act << desc.describe() << " [on context 0x" << std::hex << context
        << std::dec << ']';
    std::lock_guard lock(mu_);
    last_collective_[static_cast<std::size_t>(global_rank)] = act.str();
    return;
  }
  std::lock_guard lock(mu_);
  auto& st = contexts_[context];
  if (st.next_seq.empty())
    st.next_seq.resize(static_cast<std::size_t>(comm_size), 0);
  MBD_CHECK_EQ(st.next_seq.size(), static_cast<std::size_t>(comm_size));

  const std::uint64_t seq = st.next_seq[static_cast<std::size_t>(comm_rank)]++;
  const std::size_t idx = static_cast<std::size_t>(seq - st.retired);
  // A rank enters collectives on a context strictly in order, so its slot is
  // either an existing in-flight op or the next fresh one — never beyond.
  MBD_CHECK_LE(idx, st.inflight.size());

  if (idx == st.inflight.size()) {
    st.inflight.push_back(InflightOp{desc, comm_rank, 1});
  } else {
    InflightOp& op = st.inflight[idx];
    if (!desc.matches(op.desc)) {
      std::ostringstream os;
      os << "collective mismatch on communicator context 0x" << std::hex
         << context << std::dec << " (size " << comm_size << "), operation #"
         << seq << ": rank " << comm_rank << " called " << desc.describe()
         << " but rank " << op.first_comm_rank << " called "
         << op.desc.describe();
      throw ValidationError(os.str());
    }
    ++op.arrived;
  }
  // Retire fully-matched ops from the front so the deque stays small.
  while (!st.inflight.empty() && st.inflight.front().arrived == comm_size) {
    st.inflight.pop_front();
    ++st.retired;
  }

  std::ostringstream act;
  act << desc.describe() << " [op #" << seq << " on context 0x" << std::hex
      << context << std::dec << ']';
  last_collective_[static_cast<std::size_t>(global_rank)] = act.str();
}

void Validator::on_p2p(int global_rank, const P2pOp& op) {
  std::lock_guard lock(mu_);
  last_p2p_[static_cast<std::size_t>(global_rank)] = op;
}

std::uint64_t Validator::on_nb_initiated(int global_rank, std::string what) {
  std::lock_guard lock(mu_);
  const std::uint64_t token = next_nb_token_++;
  nb_inflight_[static_cast<std::size_t>(global_rank)].emplace(token,
                                                             std::move(what));
  return token;
}

void Validator::on_nb_completed(int global_rank, std::uint64_t token) {
  std::lock_guard lock(mu_);
  auto& inflight = nb_inflight_[static_cast<std::size_t>(global_rank)];
  const auto it = inflight.find(token);
  MBD_CHECK_MSG(it != inflight.end(),
                "nonblocking completion token " << token
                                                << " unknown on rank "
                                                << global_rank);
  inflight.erase(it);
}

void Validator::on_nb_cancelled(int global_rank, std::uint64_t token) {
  std::lock_guard lock(mu_);
  auto& inflight = nb_inflight_[static_cast<std::size_t>(global_rank)];
  const auto it = inflight.find(token);
  if (it == inflight.end()) return;  // already completed before the unwind
  inflight.erase(it);
  ++cancelled_;
}

std::uint64_t Validator::take_cancelled() {
  std::lock_guard lock(mu_);
  const std::uint64_t n = cancelled_;
  cancelled_ = 0;
  return n;
}

std::vector<std::string> Validator::outstanding_nonblocking() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  for (std::size_t r = 0; r < nb_inflight_.size(); ++r) {
    for (const auto& [token, what] : nb_inflight_[r]) {
      out.push_back("rank " + std::to_string(r) + ": " + what);
    }
  }
  return out;
}

std::string Validator::deadlock_report(int global_rank, std::uint64_t context,
                                       int src, int tag) const {
  std::lock_guard lock(mu_);
  std::ostringstream os;
  os << "probable deadlock: rank " << global_rank << " blocked longer than "
     << timeout().count() << " ms in recv(context=0x" << std::hex << context
     << std::dec << ", src=" << src << ", tag=" << tag
     << "); last known activity per rank:";
  for (std::size_t r = 0; r < last_collective_.size(); ++r) {
    os << "\n  rank " << r << ": collective "
       << (last_collective_[r].empty() ? "<none yet>" : last_collective_[r]);
    const P2pOp& op = last_p2p_[r];
    if (op.dir == P2pOp::Dir::Send) {
      os << ", p2p send(to=" << op.peer << ", tag=" << op.tag
         << ", bytes=" << op.bytes << ')';
    } else if (op.dir == P2pOp::Dir::Recv) {
      os << ", p2p recv(from=" << op.peer << ", tag=" << op.tag << ')';
    }
  }
  // A stuck recv while nonblocking operations are pending usually means a
  // CollectiveHandle was never waited (its peers' schedule messages are
  // parked in the mailboxes) — name those ops distinctly from a plain stall.
  bool any_nb = false;
  for (const auto& per_rank : nb_inflight_) any_nb |= !per_rank.empty();
  if (any_nb) {
    os << "\nnonblocking operations initiated but not completed (un-waited or "
          "leaked CollectiveHandle?):";
    for (std::size_t r = 0; r < nb_inflight_.size(); ++r) {
      for (const auto& [token, what] : nb_inflight_[r]) {
        os << "\n  rank " << r << ": " << what;
      }
    }
  }
  return os.str();
}

}  // namespace mbd::comm
