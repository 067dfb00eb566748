// Training workloads: every listed registry trainer at P = 4 plus the P = 1
// nn::train_sgd baseline, on one fixed model per workload.
//
// Step time excludes set-up by differencing two run lengths of the same
// trainer: TrainerEntry::run builds its layout, trains, and assembles the
// final parameters, so (t(long) − t(short)) / (long − short) is the time of
// the extra steps alone. The same difference of World::stats() cancels the
// set-up and assembly traffic, leaving exactly the per-step bytes the cost
// model predicts.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "mbd/comm/world.hpp"
#include "mbd/costmodel/volumes.hpp"
#include "mbd/nn/models.hpp"
#include "mbd/nn/network.hpp"
#include "mbd/nn/trainer.hpp"
#include "mbd/obs/metrics.hpp"
#include "mbd/parallel/common.hpp"
#include "mbd/parallel/engine_layout.hpp"
#include "mbd/parallel/recovery.hpp"
#include "mbd/support/check.hpp"
#include "mbd/tensor/gemm.hpp"

namespace perfbench {
namespace {

using namespace mbd;
using parallel::ReduceMode;
using parallel::TrainerEntry;

constexpr int kRanks = 4;
constexpr std::size_t kDatasetSize = 256;
constexpr double kLossTol = 2e-4;  // as in the trainer equivalence tests

struct Workload {
  std::vector<nn::LayerSpec> specs;
  std::size_t batch = 0;
  std::vector<std::string> trainers;  ///< registry launch names
  ReduceMode mode = ReduceMode::Blocking;
  std::size_t checkpoint_every = 0;   ///< 0: no checkpointing
  std::size_t microbatches = 1;       ///< pipeline only
  std::size_t short_steps = 0, long_steps = 0;  ///< the two run lengths
};

Workload make_workload(const std::string& name) {
  Workload w;
  if (name == "train_conv") {
    // A small AlexNet-shaped net: three same-padded stride-1 convolutions,
    // then two FC layers.
    w.specs = {nn::conv_spec("conv1", 3, 16, 16, 16, 5, 1, 2),
               nn::conv_spec("conv2", 16, 16, 16, 32, 3, 1, 1),
               nn::conv_spec("conv3", 32, 16, 16, 32, 3, 1, 1),
               nn::fc_spec("fc1", 32 * 16 * 16, 128),
               nn::fc_spec("fc2", 128, 10, false)};
    w.batch = 16;
    w.trainers = {"domain", "hybrid", "mixed_grid"};
  } else {
    w.specs = nn::mlp_spec({512, 1024, 1024, 512, 10});
    w.batch = 32;
    w.trainers = {"model", "batch", "integrated_15d", "pipeline"};
    w.mode = ReduceMode::Overlapped;
    w.checkpoint_every = 8;
    w.microbatches = 4;
  }
  // One step takes no checkpoint and nine take one (after step 8), so the
  // eight measured steps carry exactly one checkpoint per eight steps.
  w.short_steps = 1;
  w.long_steps = 9;
  return w;
}

struct Traffic {
  std::uint64_t bytes = 0, msgs = 0;
};

/// The per-step traffic classes: gradient and activation reductions,
/// gathers, and halo / pipeline point-to-point. The loss reduction
/// (gather + broadcast) and checkpoint barriers are excluded, as in the
/// cost model.
Traffic step_traffic(const comm::StatsSnapshot& s) {
  Traffic t;
  for (const comm::Coll c : {comm::Coll::AllReduce, comm::Coll::AllGather,
                             comm::Coll::PointToPoint}) {
    t.bytes += s[c].bytes;
    t.msgs += s[c].messages;
  }
  return t;
}

struct RunOut {
  std::vector<double> losses;
  double seconds = 0;
  Traffic traffic;
};

/// Per-trainer measurements over the rounds of one pass.
struct TrainerLog {
  const TrainerEntry* entry = nullptr;
  std::vector<double> short_s, long_s;  ///< whole runs, per round, untraced
  std::vector<double> traced_long_s;
  std::vector<LayerSplit> traced, traced_blocking;
  std::vector<double> ref_losses;  ///< first round's long run
  Traffic per_step;
  std::uint64_t closed_form_bytes = 0;

  /// Step time: the lower quartile of the long runs minus the lower
  /// quartile of the short runs, per extra step. The host's noise (other
  /// tenants' load) only adds time, in bursts lasting seconds, and per-run
  /// medians moved by 20% across runs; the lower quartile of each run length
  /// stays put, and unlike the minimum it does not pair a short run from a
  /// busy second with a long run from a quiet one.
  double step_s(std::size_t extra) const {
    return (quantile(long_s, 0.25) - quantile(short_s, 0.25)) /
           static_cast<double>(extra);
  }
};

class TrainBench {
 public:
  TrainBench(const Options& opt, Report& rep)
      : opt_(opt), rep_(rep), w_(make_workload(opt.workload)) {
    weight_seed_ = opt.seed + 1;
    // The seed drives the data, its order, and the weights.
    data_ = nn::shuffle_dataset(
        nn::make_synthetic_dataset(w_.specs.front().d_in(), 10, kDatasetSize,
                                   opt.seed),
        opt.seed + 2);
    for (std::size_t k = 0; k < w_.long_steps; ++k) {
      parallel::BatchSlice b = parallel::batch_slice(data_, k * w_.batch, w_.batch);
      step_data_.push_back({std::move(b.inputs), std::move(b.labels)});
    }
    for (const std::string& name : w_.trainers) {
      TrainerLog log;
      log.entry = parallel::find_trainer(name);
      MBD_CHECK_MSG(log.entry != nullptr, "unknown trainer " << name);
      for (int r = 0; r < kRanks; ++r)
        log.closed_form_bytes += costmodel::trainer_rank_volume(
                                     log.entry->kind, w_.specs, w_.batch, 2, 2,
                                     r)
                                     .total();
      logs_.push_back(std::move(log));
    }
  }

  void run() {
    // One untimed short run of everything first, so first-touch page
    // faults and allocator growth stay out of the measured rounds.
    {
      comm::World world(kRanks);
      for (const TrainerLog& log : logs_)
        (void)run_trainer(world, *log.entry, w_.short_steps, w_.mode);
      nn::Network net = nn::build_network(w_.specs, {.seed = weight_seed_});
      nn::TrainConfig cfg;
      cfg.batch = w_.batch;
      cfg.iterations = w_.short_steps;
      (void)nn::train_sgd(net, data_, cfg);
    }
    if (opt_.trace) {
      untraced_pass(0.4 * opt_.seconds, 2);
      traced_pass(0.4 * opt_.seconds, 2);
      probes();
      report_layers();
    } else {
      untraced_pass(opt_.seconds, 3);
      report_end_to_end();
    }
  }

 private:
  parallel::TrainerOptions options(ReduceMode mode) const {
    return parallel::TrainerOptions{.grid = {2, 2},
                                    .seed = weight_seed_,
                                    .mode = mode,
                                    .microbatches = w_.microbatches};
  }

  RunOut run_trainer(comm::World& world, const TrainerEntry& e,
                     std::size_t steps, ReduceMode mode) const {
    parallel::TrainerOptions opts = options(mode);
    parallel::CheckpointStore store(kRanks);
    const parallel::RecoveryContext rc{&store, {w_.checkpoint_every, false}};
    if (w_.checkpoint_every > 0) opts.recovery = &rc;
    nn::TrainConfig cfg;
    cfg.batch = w_.batch;
    cfg.iterations = steps;
    RunOut out;
    const comm::StatsSnapshot before = world.stats();
    const auto t0 = Clock::now();
    world.run([&](comm::Comm& c) {
      parallel::DistResult r = e.run(c, opts, w_.specs, data_, cfg);
      if (c.rank() == 0) out.losses = std::move(r.losses);
    });
    out.seconds = seconds_since(t0);
    out.traffic = step_traffic(world.stats().since(before));
    return out;
  }

  /// World construction, every trainer's layout and weight build, and the
  /// sequential network's build: the set-up a training job pays once.
  nn::Network set_up(std::unique_ptr<comm::World>& world, double& seconds) {
    const auto t0 = Clock::now();
    world = std::make_unique<comm::World>(kRanks);
    world->run([&](comm::Comm& c) {
      for (const TrainerLog& log : logs_)
        (void)log.entry->layout(c, options(w_.mode), w_.specs, w_.batch);
    });
    nn::Network net = nn::build_network(w_.specs, {.seed = weight_seed_});
    seconds = seconds_since(t0);
    return net;
  }

  bool losses_close(const std::vector<double>& a,
                    const std::vector<double>& b) const {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (!(std::abs(a[i] - b[i]) <= kLossTol * (1.0 + std::abs(b[i]))))
        return false;
    return true;
  }

  /// Rounds until `budget_s` of them ran without hypervisor steal (and at
  /// least `min_rounds`); past 1.25 times the budget every round counts, so the
  /// pass always ends. Every round's outputs are checked.
  void untraced_pass(double budget_s, int min_rounds) {
    const std::size_t extra = w_.long_steps - w_.short_steps;
    const auto start = Clock::now();
    int kept = 0;
    double kept_s = 0;
    for (int round = 0; kept < min_rounds ||
                        (kept_s < budget_s && seconds_since(start) < 1.25 * budget_s);
         ++round) {
      const StealWindow window;
      const auto round_start = Clock::now();
      std::unique_ptr<comm::World> world;
      double setup_s = 0;
      nn::Network net = set_up(world, setup_s);

      // The P = 1 baseline, one train_sgd call per step so each step is a
      // sample of its own. Step k trains on step_data_[k], the batch the
      // long run's step k takes, so the losses are that run's trajectory.
      nn::TrainConfig cfg;
      cfg.batch = w_.batch;
      cfg.iterations = 1;
      std::vector<double> seq, seq_s;
      for (const nn::Dataset& step : step_data_) {
        const auto t0 = Clock::now();
        seq.push_back(nn::train_sgd(net, step, cfg).front());
        seq_s.push_back(seconds_since(t0));
      }
      if (seq_ref_.empty()) {
        seq_ref_ = seq;
      } else {
        rep_.check(seq == seq_ref_, "train_sgd losses differ across rounds");
      }

      std::vector<double> short_s, long_s;
      for (std::size_t t = 0; t < logs_.size(); ++t) {
        TrainerLog& log = logs_[t];
        const std::string name(log.entry->launch_name);
        const RunOut s = run_trainer(*world, *log.entry, w_.short_steps, w_.mode);
        RunOut l = run_trainer(*world, *log.entry, w_.long_steps, w_.mode);
        if (round == 0 && t == 0) plant(l);
        short_s.push_back(s.seconds);
        long_s.push_back(l.seconds);

        rep_.check(std::equal(s.losses.begin(), s.losses.end(),
                              l.losses.begin()) &&
                       s.losses.size() == w_.short_steps,
                   name + ": short run is not a prefix of the long run");
        if (log.ref_losses.empty()) {
          log.ref_losses = l.losses;
        } else {
          rep_.check(l.losses == log.ref_losses,
                     name + ": losses differ across rounds");
        }
        rep_.check(losses_close(l.losses, seq),
                   name + ": losses differ from nn::train_sgd beyond " +
                       "2e-4*(1+|l|)");
        const std::uint64_t bytes = l.traffic.bytes - s.traffic.bytes;
        log.per_step = {bytes / extra, (l.traffic.msgs - s.traffic.msgs) / extra};
        rep_.check(bytes == extra * log.closed_form_bytes,
                   name + ": " + std::to_string(bytes) + " B over " +
                       std::to_string(extra) + " steps, closed form " +
                       std::to_string(log.closed_form_bytes) + " B/step");
      }

      if (!window.clean() && seconds_since(start) < 1.25 * budget_s) {
        ++discarded_;
        continue;
      }
      ++kept;
      kept_s += seconds_since(round_start);
      setup_s_.push_back(setup_s);
      seq_step_s_.insert(seq_step_s_.end(), seq_s.begin(), seq_s.end());
      for (std::size_t t = 0; t < logs_.size(); ++t) {
        logs_[t].short_s.push_back(short_s[t]);
        logs_[t].long_s.push_back(long_s[t]);
      }
    }
  }

  void plant(RunOut& l) const {
    if (opt_.plant == "loss") l.losses.back() += 1e-3;
    if (opt_.plant == "bytes") l.traffic.bytes += 4;
  }

  void traced_pass(double budget_s, int min_rounds) {
    // Shape inventory first, untimed: the shape logger takes a mutex per
    // GEMM call, so it stays out of the timed traced runs.
    {
      obs::Metrics::instance().reset();
      tensor::set_gemm_shape_metrics(true);
      comm::World world(kRanks);
      for (const TrainerLog& log : logs_)
        (void)run_trainer(world, *log.entry, w_.short_steps, w_.mode);
      tensor::set_gemm_shape_metrics(false);
    }
    const auto start = Clock::now();
    for (int round = 0; round < min_rounds || seconds_since(start) < budget_s;
         ++round) {
      comm::World world(kRanks);
      for (TrainerLog& log : logs_) {
        const std::string name(log.entry->launch_name);
        const RunOut l = traced_run(world, log, w_.mode, log.traced);
        log.traced_long_s.push_back(l.seconds);
        rep_.check(l.losses == log.ref_losses,
                   name + ": profiling changed the losses");
        if (w_.mode == ReduceMode::Overlapped) {
          // The Blocking base of the hidden fraction; bitwise-equal losses
          // across reduce modes are part of the contract.
          const RunOut b =
              traced_run(world, log, ReduceMode::Blocking, log.traced_blocking);
          rep_.check(b.losses == log.ref_losses,
                     name + ": Blocking and Overlapped losses differ");
        }
      }
    }
  }

  RunOut traced_run(comm::World& world, const TrainerLog& log, ReduceMode mode,
                    std::vector<LayerSplit>& into) const {
    obs::reset_timeline();
    obs::enable_profiling(true);
    RunOut out = run_trainer(world, *log.entry, w_.long_steps, mode);
    obs::enable_profiling(false);
    into.push_back(fold_training(obs::snapshot_timeline(), w_.long_steps));
    return out;
  }

  void probes() {
    rep_.metrics["tensor.gemm_gflops"] = replay_gemm_inventory(rep_);
    rep_.metrics["tensor.im2col_gbps"] = replay_im2col(w_.specs);

    std::vector<std::size_t> allreduce, allgather;
    for (const nn::LayerSpec& s : w_.specs) {
      allreduce.push_back(s.weight_count());
      allgather.push_back(w_.batch * s.d_out() / kRanks);
    }
    probe_collectives(allreduce, allgather, rep_);

    // The sequential layer: Network::forward / backward at the workload's
    // batch, timed from outside.
    nn::Network net = nn::build_network(w_.specs, {.seed = weight_seed_});
    const tensor::Matrix x = data_.inputs.col_block(0, w_.batch);
    std::vector<double> fwd, bwd;
    for (int rep = 0; rep < 12; ++rep) {
      const auto t0 = Clock::now();
      const tensor::Matrix y = net.forward(x);
      fwd.push_back(seconds_since(t0) * 1e3);
      const auto t1 = Clock::now();
      (void)net.backward(y);
      bwd.push_back(seconds_since(t1) * 1e3);
    }
    rep_.metrics["nn.seq_fwd_ms"] = median(fwd);
    rep_.metrics["nn.seq_bwd_ms"] = median(bwd);
    rep_.metrics["obs.metrics_observe_ns"] = probe_metrics_observe();
  }

  /// Median of one LayerSplit field over a trainer's traced rounds.
  static double med(const std::vector<LayerSplit>& v,
                    double LayerSplit::*field) {
    std::vector<double> xs;
    for (const LayerSplit& s : v) xs.push_back(s.*field);
    return median(xs);
  }

  void report_layers() {
    const double n = static_cast<double>(logs_.size());
    double gemm = 0, pack = 0, im2col = 0, exposed = 0, fwd = 0, bwd = 0,
           ckpt = 0, ov = 0, bl = 0, traced = 0, untraced = 0;
    std::uint64_t measured = 0, predicted = 0;
    for (const TrainerLog& log : logs_) {
      const std::string name(log.entry->launch_name);
      gemm += med(log.traced, &LayerSplit::gemm_ms) / n;
      pack += med(log.traced, &LayerSplit::pack_ms) / n;
      im2col += med(log.traced, &LayerSplit::im2col_ms) / n;
      exposed += med(log.traced, &LayerSplit::exposed_ms) / n;
      fwd += med(log.traced, &LayerSplit::fwd_self_ms) / n;
      bwd += med(log.traced, &LayerSplit::bwd_self_ms) / n;
      ckpt += med(log.traced, &LayerSplit::checkpoint_ms) / n;
      ov += med(log.traced, &LayerSplit::exposed_ms);
      if (!log.traced_blocking.empty())
        bl += med(log.traced_blocking, &LayerSplit::exposed_ms);
      if (name == "pipeline")
        rep_.metrics["parallel.pipeline_idle_frac"] =
            med(log.traced, &LayerSplit::idle_frac);
      traced += median(log.traced_long_s);
      untraced += median(log.long_s);
      rep_.metrics["parallel.step_ms." + name] =
          log.step_s(w_.long_steps - w_.short_steps) * 1e3;
      rep_.metrics["comm.bytes_per_step." + name] =
          static_cast<double>(log.per_step.bytes);
      rep_.metrics["comm.msgs_per_step." + name] =
          static_cast<double>(log.per_step.msgs);
      measured += log.per_step.bytes;
      predicted += log.closed_form_bytes;
      char line[160];
      std::snprintf(line, sizeof line,
                    "%-15s %8.0f B/step measured %8.0f B/step closed form",
                    name.c_str(), static_cast<double>(log.per_step.bytes),
                    static_cast<double>(log.closed_form_bytes));
      rep_.note(line);
    }
    rep_.metrics["tensor.gemm_ms"] = gemm;
    rep_.metrics["tensor.pack_ms"] = pack;
    rep_.metrics["tensor.im2col_ms"] = im2col;
    rep_.metrics["comm.exposed_ms"] = exposed;
    rep_.metrics["parallel.fwd_self_ms"] = fwd;
    rep_.metrics["parallel.bwd_self_ms"] = bwd;
    rep_.metrics["parallel.checkpoint_ms"] = ckpt;
    if (bl > 0) rep_.metrics["parallel.hidden_frac"] = 1.0 - ov / bl;
    rep_.metrics["obs.trace_overhead"] = traced / untraced;
    rep_.metrics["costmodel.bytes_ratio"] =
        static_cast<double>(measured) / static_cast<double>(predicted);
  }

  void report_end_to_end() {
    double sum_step = 0, best = 1e300;
    for (const TrainerLog& log : logs_) {
      const double step = log.step_s(w_.long_steps - w_.short_steps);
      sum_step += step;
      best = std::min(best, step);
      char line[128];
      std::snprintf(line, sizeof line, "parallel.step_ms.%s = %.3f ms",
                    std::string(log.entry->launch_name).c_str(), step * 1e3);
      rep_.note(line);
    }
    const double b = static_cast<double>(w_.batch);
    const double samples_per_s = static_cast<double>(logs_.size()) * b / sum_step;
    const double seq_per_s = b / quantile(seq_step_s_, 0.25);
    rep_.metrics["throughput_per_s"] = samples_per_s;
    rep_.metrics["latency_ms"] = best * 1e3;
    rep_.metrics["setup_s"] = median(setup_s_);
    char line[160];
    std::snprintf(line, sizeof line,
                  "train.samples_per_s = %.2f 1/s, train.seq_samples_per_s = "
                  "%.2f 1/s, lower quartile of %zu rounds (%d more discarded "
                  "for hypervisor steal)",
                  samples_per_s, seq_per_s, setup_s_.size(), discarded_);
    rep_.note(line);
  }

  const Options& opt_;
  Report& rep_;
  Workload w_;
  std::uint64_t weight_seed_ = 0;
  nn::Dataset data_;
  std::vector<nn::Dataset> step_data_;  ///< the batch of each long-run step
  std::vector<TrainerLog> logs_;
  std::vector<double> setup_s_, seq_step_s_, seq_ref_;
  int discarded_ = 0;
};

}  // namespace

void run_training(const Options& opt, Report& rep) {
  TrainBench bench(opt, rep);
  bench.run();
}

}  // namespace perfbench
