// Folds over the profiler's timeline: per-step layer time on the critical
// rank, self time of the engine's stage spans, pipeline idle share, and the
// serving gateway's batch/queue split.
#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "common.hpp"

namespace perfbench {
namespace {

using mbd::obs::Span;
using mbd::obs::SpanKind;
using mbd::obs::TimelineSnapshot;

bool is_comm(SpanKind k) {
  return k == SpanKind::CollPost || k == SpanKind::CollWait ||
         k == SpanKind::NbDrain;
}
bool is_stage(SpanKind k) {
  return k == SpanKind::StageFwd || k == SpanKind::StageBwd;
}
double dur_ns(const Span& s) { return static_cast<double>(s.t1_ns - s.t0_ns); }

/// Length of the union of [t0, t1) intervals (any order).
double union_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0;
  std::uint64_t lo = 0, hi = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (open && a <= hi) {
      hi = std::max(hi, b);
      continue;
    }
    if (open) total += static_cast<double>(hi - lo);
    lo = a;
    hi = b;
    open = true;
  }
  if (open) total += static_cast<double>(hi - lo);
  return total;
}

/// One rank's spans inside its measurement window, with sums per kind.
struct RankWindow {
  std::vector<Span> spans;  ///< sorted by t0
  double window_ns = 0;
  double kind_ns[static_cast<int>(SpanKind::kCount)] = {};
  double fwd_self_ns = 0, bwd_self_ns = 0;
  double checkpoint_ns = 0, checkpoints = 0;
  double stage_busy_ns = 0;  ///< stage spans minus the comm inside them

  double compute_ns() const {
    return kind_ns[static_cast<int>(SpanKind::Gemm)] +
           kind_ns[static_cast<int>(SpanKind::Im2col)];
  }
  double comm_ns() const {
    return kind_ns[static_cast<int>(SpanKind::CollPost)] +
           kind_ns[static_cast<int>(SpanKind::CollWait)] +
           kind_ns[static_cast<int>(SpanKind::NbDrain)];
  }
};

RankWindow fold_window(std::vector<Span> spans, std::uint64_t lo,
                       std::uint64_t hi) {
  RankWindow w;
  w.window_ns = static_cast<double>(hi - lo);
  for (const Span& s : spans)
    if (s.t0_ns >= lo && s.t1_ns <= hi) w.spans.push_back(s);
  std::sort(w.spans.begin(), w.spans.end(),
            [](const Span& a, const Span& b) { return a.t0_ns < b.t0_ns; });
  // A checkpoint's barriers are checkpoint time, not gradient or
  // activation traffic, so comm spans nested in one are left out of comm.
  std::vector<const Span*> checkpoints;
  for (const Span& s : w.spans) {
    if (s.kind != SpanKind::Checkpoint) continue;
    checkpoints.push_back(&s);
    w.checkpoint_ns += dur_ns(s);
    w.checkpoints += 1;
  }
  for (const Span& s : w.spans) {
    const bool in_checkpoint =
        is_comm(s.kind) &&
        std::any_of(checkpoints.begin(), checkpoints.end(), [&](const Span* c) {
          return s.t0_ns >= c->t0_ns && s.t1_ns <= c->t1_ns;
        });
    if (!in_checkpoint) w.kind_ns[static_cast<int>(s.kind)] += dur_ns(s);
  }
  // Self time: a stage span minus the union of the spans nested in it.
  // Spans on one thread nest properly, so "contained" means "descendant".
  for (std::size_t i = 0; i < w.spans.size(); ++i) {
    const Span& st = w.spans[i];
    if (!is_stage(st.kind)) continue;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kids, comm;
    for (std::size_t j = i + 1;
         j < w.spans.size() && w.spans[j].t0_ns < st.t1_ns; ++j) {
      const Span& c = w.spans[j];
      if (c.t1_ns > st.t1_ns) continue;
      kids.emplace_back(c.t0_ns, c.t1_ns);
      if (is_comm(c.kind)) comm.emplace_back(c.t0_ns, c.t1_ns);
    }
    const double self = dur_ns(st) - union_ns(kids);
    (st.kind == SpanKind::StageFwd ? w.fwd_self_ns : w.bwd_self_ns) += self;
    w.stage_busy_ns += dur_ns(st) - union_ns(comm);
  }
  return w;
}

/// Per-step split across ranks: compute-side numbers from the rank with the
/// most Gemm+Im2col time, exposed comm from the rank with the most comm.
LayerSplit split_of(const std::vector<RankWindow>& ranks, double steps) {
  LayerSplit out;
  if (ranks.empty() || steps <= 0) return out;
  const auto per = [&](double ns) { return ns / 1e6 / steps; };
  const RankWindow* compute = &ranks[0];
  double comm = 0, fwd = 0, bwd = 0, ckpt = 0, idle = 0;
  for (const RankWindow& r : ranks) {
    if (r.compute_ns() > compute->compute_ns()) compute = &r;
    comm = std::max(comm, r.comm_ns());
    fwd = std::max(fwd, r.fwd_self_ns);
    bwd = std::max(bwd, r.bwd_self_ns);
    if (r.checkpoints > 0) ckpt = std::max(ckpt, r.checkpoint_ns / r.checkpoints);
    if (r.window_ns > 0) idle += 1.0 - r.stage_busy_ns / r.window_ns;
  }
  out.gemm_ms = per(compute->kind_ns[static_cast<int>(SpanKind::Gemm)]);
  out.pack_ms = per(compute->kind_ns[static_cast<int>(SpanKind::Pack)]);
  out.im2col_ms = per(compute->kind_ns[static_cast<int>(SpanKind::Im2col)]);
  out.exposed_ms = per(comm);
  out.fwd_self_ms = per(fwd);
  out.bwd_self_ms = per(bwd);
  out.checkpoint_ms = ckpt / 1e6;
  out.idle_frac = idle / static_cast<double>(ranks.size());
  return out;
}

/// Every bound rank's spans, merged across its threads.
std::map<int, std::vector<Span>> spans_by_rank(const TimelineSnapshot& snap) {
  std::map<int, std::vector<Span>> out;
  for (const auto& t : snap.threads) {
    if (t.rank < 0) continue;
    auto& v = out[t.rank];
    v.insert(v.end(), t.spans.begin(), t.spans.end());
  }
  return out;
}

}  // namespace

LayerSplit fold_training(const TimelineSnapshot& snap,
                         std::size_t iterations) {
  if (iterations < 3) return {};
  const std::uint64_t first = 1, last = iterations - 1;
  std::vector<RankWindow> ranks;
  for (auto& [rank, spans] : spans_by_rank(snap)) {
    // Stage spans carry (iteration, microbatch) in (arg0, arg1).
    std::uint64_t lo = UINT64_MAX, hi = UINT64_MAX;
    for (const Span& s : spans) {
      if (!is_stage(s.kind)) continue;
      if (s.arg0 == first) lo = std::min(lo, s.t0_ns);
      if (s.arg0 == last) hi = std::min(hi, s.t0_ns);
    }
    if (lo == UINT64_MAX || hi == UINT64_MAX || hi <= lo) continue;
    ranks.push_back(fold_window(std::move(spans), lo, hi));
  }
  return split_of(ranks, static_cast<double>(last - first));
}

ServeSplit fold_serving(const TimelineSnapshot& snap, std::uint64_t start_ns) {
  ServeSplit out;
  std::vector<const Span*> enqueues, batches;
  std::vector<double> forwards;
  for (const auto& t : snap.threads) {
    for (const Span& s : t.spans) {
      if (s.kind != SpanKind::Serve) continue;
      if (std::strcmp(s.label, "calibrate") == 0) {
        out.calibrate_s += dur_ns(s) / 1e9;
        continue;
      }
      if (s.t0_ns < start_ns) continue;
      if (std::strcmp(s.label, "enqueue") == 0) enqueues.push_back(&s);
      if (std::strcmp(s.label, "batch") == 0) batches.push_back(&s);
      if (std::strcmp(s.label, "forward") == 0) forwards.push_back(dur_ns(s) / 1e6);
    }
  }
  const auto by_start = [](const Span* a, const Span* b) {
    return a->t0_ns < b->t0_ns;
  };
  std::sort(enqueues.begin(), enqueues.end(), by_start);
  std::sort(batches.begin(), batches.end(), by_start);
  if (batches.empty()) return out;

  // The dispatcher takes requests first-in first-out and a batch span's
  // arg0 is its size, so request i belongs to the batch whose cumulative
  // size first exceeds i.
  std::vector<double> waits;
  std::size_t req = 0, taken = 0;
  for (const Span* b : batches) {
    taken += b->arg0;
    for (; req < taken && req < enqueues.size(); ++req)
      waits.push_back(
          static_cast<double>(b->t0_ns - std::min(b->t0_ns, enqueues[req]->t1_ns)) /
          1e6);
  }
  out.batch_mean = static_cast<double>(taken) / static_cast<double>(batches.size());
  out.queue_wait_ms = median(waits);
  out.forward_ms = median(forwards);

  // Rank 0 dispatches and replies, so its timeline is the latency path; the
  // other ranks spend their idle time blocked in the next batch's broadcast,
  // which is waiting for requests, not exposed communication.
  auto ranks = spans_by_rank(snap);
  if (ranks.count(0) == 0) return out;
  std::uint64_t hi = start_ns;
  for (const Span& s : ranks[0]) hi = std::max(hi, s.t1_ns);
  out.layers = split_of({fold_window(std::move(ranks[0]), start_ns, hi)},
                        static_cast<double>(batches.size()));
  return out;
}

}  // namespace perfbench
