#include "mbd/serve/gateway.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>

#include "mbd/costmodel/serving.hpp"
#include "mbd/obs/metrics.hpp"
#include "mbd/obs/profiler.hpp"
#include "mbd/support/check.hpp"

namespace mbd::serve {

using Clock = std::chrono::steady_clock;
using tensor::Matrix;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

Gateway::Gateway(InferenceSession& session, comm::Comm& comm,
                 GatewayOptions opts)
    : session_(&session), comm_(&comm), opts_(opts) {
  MBD_CHECK_GT(opts_.queue_capacity, 0u);
  MBD_CHECK_GT(opts_.max_batch, 0u);
  // A preset operating point takes effect immediately (admission control
  // works before serve() starts); calibration fills it in otherwise.
  chosen_batch_ = std::min(opts_.batch_size, opts_.max_batch);
  batch_latency_s_ = opts_.assumed_batch_latency_s;
}

void Gateway::serve() {
  if (comm_->rank() == 0) {
    run_dispatcher();
  } else {
    run_follower();
  }
}

std::future<Reply> Gateway::submit(std::vector<float> features) {
  MBD_CHECK_EQ(comm_->rank(), 0);
  MBD_CHECK_EQ(features.size(), session_->d_in());
  obs::ScopedSpan span(obs::SpanKind::Serve, "enqueue");
  auto& metrics = obs::Metrics::instance();

  std::promise<Reply> promise;
  std::future<Reply> fut = promise.get_future();

  std::unique_lock lk(mu_);
  const char* reject = nullptr;
  if (shutdown_) {
    reject = "shutdown";
  } else if (queue_.size() >= opts_.queue_capacity) {
    reject = "queue_full";
  } else if (opts_.latency_budget_s > 0.0 && batch_latency_s_ > 0.0 &&
             chosen_batch_ > 0) {
    // Rounds queued ahead of this request, plus its own round.
    const double rounds =
        static_cast<double>(queue_.size()) /
            static_cast<double>(chosen_batch_) +
        1.0;
    if (rounds * batch_latency_s_ > opts_.latency_budget_s)
      reject = "deadline";
  }
  if (reject != nullptr) {
    lk.unlock();
    metrics.counter_add(std::string("serve.rejected.") + reject);
    Reply r;
    r.reject_reason = reject;
    promise.set_value(std::move(r));
    return fut;
  }
  queue_.push_back({std::move(features), std::move(promise), Clock::now()});
  const std::size_t depth = queue_.size();
  lk.unlock();
  metrics.counter_add("serve.accepted");
  metrics.gauge_set("serve.queue_depth", static_cast<double>(depth));
  cv_.notify_one();
  return fut;
}

void Gateway::shutdown() {
  // Notify under mu_: serve() may return, and the Gateway be destroyed, as
  // soon as the dispatcher sees shutdown_, so cv_ is not touched after that.
  const std::lock_guard lk(mu_);
  shutdown_ = true;
  cv_.notify_all();
}

std::size_t Gateway::chosen_batch() const {
  const std::lock_guard lk(mu_);
  return chosen_batch_;
}

double Gateway::batch_latency_s() const {
  const std::lock_guard lk(mu_);
  return batch_latency_s_;
}

Matrix Gateway::run_batch_collective(const Matrix& input) {
  std::uint64_t header = input.cols();
  comm_->broadcast(std::span<std::uint64_t>(&header, 1), 0);
  std::vector<float> buf(input.span().begin(), input.span().end());
  comm_->broadcast(std::span<float>(buf), 0);
  return session_->forward(
      Matrix::from_data(session_->d_in(), input.cols(), std::move(buf)));
}

std::size_t Gateway::calibrate() {
  // Self-bench the latency-vs-batch curve over a power-of-two ladder of
  // zero batches (cost depends on shape, not values), then pick the knee.
  std::vector<costmodel::LatencyPoint> points;
  const int reps = std::max(1, opts_.calibration_reps);
  for (std::size_t b = 1; b <= opts_.max_batch; b *= 2) {
    const Matrix probe(session_->d_in(), b);
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
      obs::ScopedSpan span(obs::SpanKind::Serve, "calibrate", b);
      const auto t0 = Clock::now();
      (void)run_batch_collective(probe);
      best = std::min(best, seconds_since(t0));
    }
    points.push_back({static_cast<double>(b), best});
  }
  const costmodel::BatchChoice choice = costmodel::pick_serving_batch(
      points, opts_.max_batch, opts_.latency_budget_s);
  const std::lock_guard lk(mu_);
  chosen_batch_ = choice.batch;
  if (batch_latency_s_ <= 0.0) batch_latency_s_ = choice.latency_s;
  return choice.batch;
}

void Gateway::run_dispatcher() {
  auto& metrics = obs::Metrics::instance();
  std::size_t chosen = std::min(opts_.batch_size, opts_.max_batch);
  if (chosen == 0) chosen = calibrate();
  metrics.gauge_set("serve.chosen_batch", static_cast<double>(chosen));

  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) break;  // shutdown and drained
      const std::size_t take = std::min(queue_.size(), chosen);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      metrics.gauge_set("serve.queue_depth",
                        static_cast<double>(queue_.size()));
    }

    const std::size_t k = batch.size();
    Matrix input(session_->d_in(), k);
    {
      obs::ScopedSpan span(obs::SpanKind::Serve, "batch", k);
      for (std::size_t i = 0; i < k; ++i)
        input.set_col_block(
            i, Matrix::from_data(session_->d_in(), 1,
                                 std::move(batch[i].features)));
    }

    Matrix logits;
    {
      obs::ScopedSpan span(obs::SpanKind::Serve, "forward", k);
      logits = run_batch_collective(input);
    }

    {
      obs::ScopedSpan span(obs::SpanKind::Serve, "reply", k);
      for (std::size_t i = 0; i < k; ++i) {
        Reply r;
        r.accepted = true;
        const Matrix col = logits.col_block(i, i + 1);
        r.logits.assign(col.span().begin(), col.span().end());
        r.latency_s = seconds_since(batch[i].enqueued);
        metrics.hist_observe("serve.latency_us", r.latency_s * 1e6);
        batch[i].promise.set_value(std::move(r));
      }
      metrics.hist_observe("serve.batch_size", static_cast<double>(k));
      metrics.counter_add("serve.batches");
    }
  }

  // Release the followers: a zero-sized batch is the shutdown sentinel.
  std::uint64_t header = 0;
  comm_->broadcast(std::span<std::uint64_t>(&header, 1), 0);
}

void Gateway::run_follower() {
  for (;;) {
    std::uint64_t header = 0;
    comm_->broadcast(std::span<std::uint64_t>(&header, 1), 0);
    if (header == 0) return;
    std::vector<float> buf(session_->d_in() * header);
    comm_->broadcast(std::span<float>(buf), 0);
    (void)session_->forward(Matrix::from_data(
        session_->d_in(), static_cast<std::size_t>(header), std::move(buf)));
  }
}

}  // namespace mbd::serve
