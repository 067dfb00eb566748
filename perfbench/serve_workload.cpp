// Serving workloads: the integrated_15d 2×2 layout of an MLP served through
// serve::Gateway with dynamic batching, driven by one generator thread in an
// open loop at a fixed rate (serve_light: 1000 req/s, serve_heavy: 6000
// req/s, about a quarter of the gateway's capacity on an idle 4-core host;
// at 12000 req/s it fell behind for whole runs whenever other tenants
// loaded the host).
//
// Latency is measured from when each request was due, not from when it was
// enqueued: a generator that falls behind (or a gateway that stalls it)
// shows up as latency, and the generator's own lateness is reported beside
// it. Percentiles come from the raw per-request samples.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "mbd/comm/world.hpp"
#include "mbd/nn/models.hpp"
#include "mbd/nn/network.hpp"
#include "mbd/nn/trainer.hpp"
#include "mbd/obs/metrics.hpp"
#include "mbd/parallel/common.hpp"
#include "mbd/parallel/engine_layout.hpp"
#include "mbd/serve/gateway.hpp"
#include "mbd/support/rng.hpp"
#include "mbd/tensor/gemm.hpp"

namespace perfbench {
namespace {

using namespace mbd;

constexpr int kRanks = 4;
constexpr std::size_t kMaxBatch = 32;
constexpr std::size_t kDatasetSize = 512;
constexpr double kSloS = 0.010;
constexpr float kLogitTol = 5e-4f;  // as in the gateway tests
// Each round sets up a fresh World and gateway and serves its share of the
// requests, so set-up is sampled once per round and a round the host stalls
// does not carry its backlog into the next one.
constexpr int kRounds = 8;
// At least ten samples beyond p99 need more than 1000 samples.
constexpr std::size_t kMinRequests = 1100;

struct RoundOut {
  std::vector<double> latency_ms;  ///< from due, accepted requests
  std::vector<double> late_ms;     ///< generator lateness per request
  std::size_t requests = 0, rejected = 0, wrong = 0, slo_miss = 0;
  double setup_s = 0;
  double phase_s = 0;          ///< first due -> last reply
  std::uint64_t start_ns = 0;  ///< first due, on the profiler's clock
  std::size_t chosen_batch = 0;
};

class ServeBench {
 public:
  ServeBench(const Options& opt, Report& rep)
      : opt_(opt),
        rep_(rep),
        rate_(opt.workload == "serve_light" ? 1000.0 : 6000.0),
        specs_(nn::mlp_spec({256, 512, 512, 10})),
        weight_seed_(opt.seed + 1) {
    // The seed drives the request features, their order, and the weights.
    data_ = nn::make_synthetic_dataset(256, 10, kDatasetSize, opt.seed);
    order_.resize(kDatasetSize);
    for (std::size_t i = 0; i < kDatasetSize; ++i) order_[i] = i;
    Rng rng(opt.seed + 2);
    for (std::size_t i = kDatasetSize; i > 1; --i)
      std::swap(order_[i - 1], order_[rng.uniform_index(i)]);
    // Reference logits: the sequential network on the same weights.
    nn::Network net = nn::build_network(specs_, {.seed = weight_seed_});
    reference_ = net.forward(data_.inputs);
    const auto total = std::max<std::size_t>(
        kMinRequests, static_cast<std::size_t>(rate_ * opt.seconds));
    per_round_ = (total + kRounds - 1) / kRounds;
  }

  void run() {
    if (opt_.trace) {
      const RoundOut base = round(per_round_, false);
      const RoundOut traced = round(per_round_, true);
      const ServeSplit split = fold_serving(obs::snapshot_timeline(),
                                            traced.start_ns);
      // Shape inventory in its own untimed round: the shape logger takes a
      // mutex per GEMM call.
      obs::Metrics::instance().reset();
      tensor::set_gemm_shape_metrics(true);
      (void)round(std::min<std::size_t>(per_round_, 1000), false);
      tensor::set_gemm_shape_metrics(false);
      report_layers(base, traced, split);
    } else {
      // Rounds the hypervisor's steal spoiled are checked and run again.
      // Past 1.25 times the budget every round counts and three suffice, so
      // a steal storm cannot stretch the run much.
      const auto start = Clock::now();
      const auto late = [&] { return seconds_since(start) > 1.25 * opt_.seconds; };
      std::vector<RoundOut> rounds;
      int discarded = 0;
      while (rounds.size() < kRounds && !(late() && rounds.size() >= 3)) {
        const StealWindow window;
        RoundOut r = round(per_round_, false);
        count(r);
        if (window.clean() || late()) {
          rounds.push_back(std::move(r));
        } else {
          ++discarded;
        }
      }
      report_end_to_end(rounds, discarded);
    }
  }

 private:
  RoundOut round(std::size_t n, bool profile) {
    RoundOut out;
    std::mutex mu;
    std::condition_variable cv;
    serve::Gateway* gateway = nullptr;

    if (profile) {
      obs::reset_timeline();
      obs::enable_profiling(true);
    }
    const auto setup_start = Clock::now();
    std::thread generator([&] {
      serve::Gateway* gw = nullptr;
      {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] { return gateway != nullptr; });
        gw = gateway;
      }
      // Set-up ends when the dispatcher has finished its calibration ladder.
      while ((out.chosen_batch = gw->chosen_batch()) == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      out.setup_s = seconds_since(setup_start);
      generate(*gw, n, out);
      gw->shutdown();
    });
    try {
      comm::World world(kRanks);
      world.run([&](comm::Comm& c) {
        const parallel::TrainerEntry* entry =
            parallel::find_trainer("integrated_15d");
        serve::InferenceSession session(
            c, entry->layout(c,
                             parallel::TrainerOptions{.grid = {2, 2},
                                                      .seed = weight_seed_},
                             specs_, kMaxBatch));
        serve::GatewayOptions go;
        go.queue_capacity = n + 1;  // never shed: every request is measured
        go.max_batch = kMaxBatch;
        serve::Gateway gw(session, c, go);
        if (c.rank() == 0) {
          const std::lock_guard lk(mu);
          gateway = &gw;
          cv.notify_all();
        }
        gw.serve();
      });
    } catch (const std::exception& e) {
      // The generator may hold the destroyed gateway; end the process.
      std::fprintf(stderr, "perfbench: serving failed: %s\n", e.what());
      std::_Exit(3);
    }
    generator.join();
    if (profile) obs::enable_profiling(false);
    return out;
  }

  void generate(serve::Gateway& gw, std::size_t n, RoundOut& out) {
    std::vector<std::future<serve::Reply>> futures;
    std::vector<Clock::time_point> due(n), call(n);
    futures.reserve(n);
    const auto t0 = Clock::now() + std::chrono::milliseconds(1);
    out.start_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t0.time_since_epoch())
            .count());
    const std::size_t d = data_.inputs.rows();
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(static_cast<double>(i) /
                                                      rate_));
      const std::size_t col = order_[i % order_.size()];
      std::vector<float> x(d);
      for (std::size_t r = 0; r < d; ++r) x[r] = data_.inputs(r, col);
      if (Clock::now() < due[i]) std::this_thread::sleep_until(due[i]);
      call[i] = Clock::now();
      futures.push_back(gw.submit(std::move(x)));
    }

    // Replies are checked after the phase, so checking adds no latency.
    out.requests = n;
    Clock::time_point end = t0;
    for (std::size_t i = 0; i < n; ++i) {
      serve::Reply r = futures[i].get();
      if (!r.accepted) {
        ++out.rejected;
        ++out.slo_miss;
        continue;
      }
      if (i == 0 && opt_.plant == "logits" && !r.logits.empty()) r.logits[0] += 1.0f;
      if (!logits_match(r.logits, order_[i % order_.size()])) ++out.wrong;
      const double late = std::chrono::duration<double>(call[i] - due[i]).count();
      const double latency = late + r.latency_s;
      out.late_ms.push_back(late * 1e3);
      out.latency_ms.push_back(latency * 1e3);
      if (latency > kSloS) ++out.slo_miss;
      end = std::max(end, call[i] + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(r.latency_s)));
    }
    out.phase_s = std::chrono::duration<double>(end - t0).count();
  }

  bool logits_match(const std::vector<float>& got, std::size_t col) const {
    if (got.size() != reference_.rows()) return false;
    for (std::size_t k = 0; k < got.size(); ++k) {
      const float want = reference_(k, col);
      if (!(std::abs(got[k] - want) <= kLogitTol * (1.0f + std::abs(want))))
        return false;
    }
    return true;
  }

  /// The P = 1 baseline: seconds per nn::Network::forward of the served
  /// model at the gateway's largest batch.
  std::vector<double> forward_times() const {
    nn::Network net = nn::build_network(specs_, {.seed = weight_seed_});
    const tensor::Matrix x = data_.inputs.col_block(0, kMaxBatch);
    std::vector<double> t;
    for (int r = 0; r < 51; ++r) {
      const auto t0 = Clock::now();
      const tensor::Matrix y = net.forward(x);
      t.push_back(seconds_since(t0));
    }
    return t;
  }

  void count(const RoundOut& r) {
    rep_.count_ops(r.requests, r.rejected);
    rep_.check(r.wrong == 0, std::to_string(r.wrong) + " of " +
                                 std::to_string(r.requests) +
                                 " served logits differ from "
                                 "nn::Network::forward");
  }

  void report_end_to_end(const std::vector<RoundOut>& rounds, int discarded) {
    // Per-round figures, then the median over rounds; the pooled samples
    // give the tail.
    std::vector<double> latency, late, goodput, p50, setup, forward;
    std::size_t requests = 0, slo_miss = 0;
    for (const RoundOut& r : rounds) {
      latency.insert(latency.end(), r.latency_ms.begin(), r.latency_ms.end());
      late.insert(late.end(), r.late_ms.begin(), r.late_ms.end());
      p50.push_back(quantile(r.latency_ms, 0.5));
      goodput.push_back(static_cast<double>(r.requests - r.slo_miss) /
                        r.phase_s);
      setup.push_back(r.setup_s);
      requests += r.requests;
      slo_miss += r.slo_miss;
      const std::vector<double> t = forward_times();
      forward.insert(forward.end(), t.begin(), t.end());
    }
    rep_.metrics["throughput_per_s"] = median(goodput);
    rep_.metrics["latency_ms"] = median(p50);
    rep_.metrics["setup_s"] = median(setup);

    const std::string rate = opt_.workload == "serve_light" ? "light" : "heavy";
    const double p99 = quantile(latency, 0.99);
    char line[256];
    std::snprintf(line, sizeof line,
                  "serve.%s.p50_ms = %.4f ms, serve.%s.p99_ms = %.4f ms over "
                  "%zu samples (%zu beyond p99), p90 = %.4f ms",
                  rate.c_str(), quantile(latency, 0.5), rate.c_str(), p99,
                  latency.size(),
                  static_cast<std::size_t>(std::count_if(
                      latency.begin(), latency.end(),
                      [&](double v) { return v > p99; })),
                  quantile(latency, 0.9));
    rep_.note(line);
    std::snprintf(line, sizeof line,
                  "serve.slo_miss_ratio = %.6f (10 ms from due), generator "
                  "late p99 = %.4f ms, batch = %zu, rate = %.0f req/s",
                  static_cast<double>(slo_miss) / static_cast<double>(requests),
                  quantile(late, 0.99), rounds.front().chosen_batch, rate_);
    rep_.note(line);
    std::snprintf(line, sizeof line,
                  "P=1 baseline: nn::Network::forward at batch %zu = %.1f "
                  "samples/s (median of %zu); %d rounds discarded for "
                  "hypervisor steal",
                  kMaxBatch, static_cast<double>(kMaxBatch) / median(forward),
                  forward.size(), discarded);
    rep_.note(line);
  }

  void report_layers(const RoundOut& base, const RoundOut& traced,
                     const ServeSplit& split) {
    count(base);
    count(traced);
    rep_.metrics["tensor.gemm_ms"] = split.layers.gemm_ms;
    rep_.metrics["tensor.pack_ms"] = split.layers.pack_ms;
    rep_.metrics["tensor.im2col_ms"] = split.layers.im2col_ms;
    rep_.metrics["comm.exposed_ms"] = split.layers.exposed_ms;
    rep_.metrics["parallel.fwd_self_ms"] = split.layers.fwd_self_ms;
    rep_.metrics["serve.batch_mean"] = split.batch_mean;
    rep_.metrics["serve.queue_wait_ms"] = split.queue_wait_ms;
    rep_.metrics["serve.forward_ms"] = split.forward_ms;
    rep_.metrics["serve.calibrate_s"] = split.calibrate_s;
    rep_.metrics["serve.gen_late_p99_ms"] = quantile(base.late_ms, 0.99);
    rep_.metrics["serve.slo_miss_ratio"] =
        static_cast<double>(base.slo_miss) / static_cast<double>(base.requests);
    rep_.metrics["obs.trace_overhead"] =
        quantile(traced.latency_ms, 0.5) / quantile(base.latency_ms, 0.5);

    rep_.metrics["tensor.gemm_gflops"] = replay_gemm_inventory(rep_);
    std::vector<std::size_t> allreduce, allgather;
    for (const nn::LayerSpec& s : specs_) {
      allreduce.push_back(kMaxBatch * s.d_out());
      allgather.push_back(kMaxBatch * s.d_out() / kRanks);
    }
    probe_collectives(allreduce, allgather, rep_);
    rep_.metrics["nn.seq_fwd_ms"] = median(forward_times()) * 1e3;
    rep_.metrics["obs.metrics_observe_ns"] = probe_metrics_observe();
  }

  const Options& opt_;
  Report& rep_;
  double rate_;
  std::vector<nn::LayerSpec> specs_;
  std::uint64_t weight_seed_;
  nn::Dataset data_;
  std::vector<std::size_t> order_;
  tensor::Matrix reference_;
  std::size_t per_round_ = 0;
};

}  // namespace

void run_serving(const Options& opt, Report& rep) {
  ServeBench bench(opt, rep);
  bench.run();
}

}  // namespace perfbench
