// Shared pieces of the end-to-end benchmark: options, raw-sample statistics,
// the result sink with its correctness gate, and the per-workload entry
// points (train_workload.cpp, serve_workload.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mbd/nn/layer_spec.hpp"
#include "mbd/obs/profiler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// What the command line asked for.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string plant;  ///< "", "loss", "bytes" or "logits"
};

/// q-quantile of raw samples by linear interpolation between closest ranks
/// (the convention of numpy's default); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Whether the machine's hypervisor stole more than 2% of its CPU time
/// between construction and clean(). Stolen time stalls every thread at
/// once (a 4-vCPU VM saw stalls of minutes), so the measuring loops discard
/// rounds it spoiled and run others instead. Reads the steal column of
/// /proc/stat; where that is missing every window is clean.
class StealWindow {
 public:
  StealWindow();
  bool clean() const;

 private:
  Clock::time_point t0_;
  double steal0_s_;
};

/// Metric values and the correctness tally of one run. Workloads fill
/// `metrics` by name (main.cpp owns the canonical name and unit lists) and
/// `info` with human-readable context printed before the result line.
struct Report {
  std::map<std::string, double> metrics;
  std::vector<std::string> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Count one correctness check; a miss is described on stderr.
  bool check(bool ok, const std::string& what);
  /// Count operations (requests) attempted and refused.
  void count_ops(std::uint64_t n, std::uint64_t refused) {
    attempted += n;
    failed += refused;
  }
  void note(const std::string& line) { info.push_back(line); }
};

// ---------------------------------------------------------------------------
// Timeline folds (timeline.cpp). All times are per step (training) or per
// dispatched batch (serving), in milliseconds.

/// Per-step layer split of one traced run.
struct LayerSplit {
  double gemm_ms = 0;       ///< Gemm spans, compute-critical rank
  double pack_ms = 0;       ///< Pack spans (nested in Gemm), same rank
  double im2col_ms = 0;     ///< Im2col spans, same rank
  double exposed_ms = 0;    ///< CollPost+CollWait+NbDrain, comm-critical rank
  double fwd_self_ms = 0;   ///< StageFwd minus child spans, max over ranks
  double bwd_self_ms = 0;   ///< StageBwd minus child spans, max over ranks
  double checkpoint_ms = 0; ///< mean Checkpoint span, max over ranks (0: none)
  double idle_frac = 0;     ///< mean over ranks of the non-stage-compute share
};

/// Fold a traced training run of `iterations` steps. The window runs from
/// the first stage span of iteration 1 to the first stage span of the last
/// iteration on each rank, so set-up, the first (cold) step and the final
/// parameter assembly fall outside it.
LayerSplit fold_training(const mbd::obs::TimelineSnapshot& snap,
                         std::size_t iterations);

/// Serving-side spans of one traced round, from `start_ns` on.
struct ServeSplit {
  LayerSplit layers;             ///< per dispatched batch, on rank 0
  double batch_mean = 0;         ///< requests per dispatched batch
  double queue_wait_ms = 0;      ///< median enqueue end -> batch start
  double forward_ms = 0;         ///< median "forward" Serve span
  double calibrate_s = 0;        ///< sum of "calibrate" Serve spans
};
ServeSplit fold_serving(const mbd::obs::TimelineSnapshot& snap,
                        std::uint64_t start_ns);

// ---------------------------------------------------------------------------
// Layer probes (probes.cpp), run only in the traced pass.

/// GEMM shapes recorded by tensor::set_gemm_shape_metrics, replayed
/// single-threaded; returns GFLOP/s over the whole inventory.
double replay_gemm_inventory(Report& rep);
/// im2col + col2im over the conv layers of `specs`, GB/s (0 without conv).
double replay_im2col(const std::vector<mbd::nn::LayerSpec>& specs);
/// Ring all-reduce / Bruck all-gather / memcpy bandwidth at the given
/// message sizes (floats per rank), GB/s. Fills the three comm.* metrics.
void probe_collectives(const std::vector<std::size_t>& allreduce_floats,
                       const std::vector<std::size_t>& allgather_floats,
                       Report& rep);
/// ns per obs::Metrics::hist_observe call, timed from outside.
double probe_metrics_observe();

// ---------------------------------------------------------------------------
// Workloads.

void run_training(const Options& opt, Report& rep);
void run_serving(const Options& opt, Report& rep);

}  // namespace perfbench
