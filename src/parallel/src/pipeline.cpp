#include "mbd/parallel/pipeline.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "mbd/parallel/engine_layout.hpp"
#include "mbd/parallel/layer_engine.hpp"
#include "mbd/support/check.hpp"
#include "mbd/tensor/matrix.hpp"

namespace mbd::parallel {
namespace {

using tensor::Matrix;

// One user-space tag pair per microbatch (far below Comm::kInternalTagBase),
// so the static analyzer's replay matches each boundary transfer to exactly
// the tick that produced it.
int fwd_tag(std::size_t m) { return static_cast<int>(2 * m); }
int bwd_tag(std::size_t m) { return static_cast<int>(2 * m + 1); }

/// Entry boundary of a pipeline rank: forward receives the previous rank's
/// boundary activations for the tick's microbatch; backward returns the
/// gradient at that boundary to the previous rank.
class PipeRecvStage final : public EngineStage {
 public:
  PipeRecvStage(comm::Comm* comm, int peer, std::size_t dim)
      : comm_(comm), peer_(peer), dim_(dim) {}

  const char* name() const override { return "pipe_recv"; }
  bool supports_microbatching() const override { return true; }

  Flow forward(Flow /*in*/, const StepContext& ctx) override {
    auto act = comm_->recv<float>(peer_, fwd_tag(ctx.microbatch));
    MBD_CHECK_EQ(act.size() % dim_, 0u);
    const std::size_t cols = act.size() / dim_;
    return Flow::from_matrix(Matrix::from_data(dim_, cols, std::move(act)));
  }

  Flow backward(Flow grad, const StepContext& ctx,
                GradReducer& /*red*/) override {
    const Matrix& g = grad.as_matrix();
    MBD_CHECK_EQ(g.rows(), dim_);
    comm_->send(peer_, std::span<const float>(g.span()),
                bwd_tag(ctx.microbatch));
    return {};
  }

  void update(float /*lr*/, float /*momentum*/) override {}
  void collect_params(std::vector<float>& /*out*/) override {}

 private:
  comm::Comm* comm_;
  int peer_;
  std::size_t dim_;  ///< boundary width: fc_in of this rank's first layer
};

/// Exit boundary of a pipeline rank: forward sends this rank's boundary
/// activations to the next rank; backward receives the gradient at that
/// boundary back from it.
class PipeSendStage final : public EngineStage {
 public:
  PipeSendStage(comm::Comm* comm, int peer, std::size_t dim)
      : comm_(comm), peer_(peer), dim_(dim) {}

  const char* name() const override { return "pipe_send"; }
  bool supports_microbatching() const override { return true; }

  Flow forward(Flow in, const StepContext& ctx) override {
    const Matrix& y = in.as_matrix();
    MBD_CHECK_EQ(y.rows(), dim_);
    comm_->send(peer_, std::span<const float>(y.span()),
                fwd_tag(ctx.microbatch));
    return {};
  }

  Flow backward(Flow /*grad*/, const StepContext& ctx,
                GradReducer& /*red*/) override {
    auto g = comm_->recv<float>(peer_, bwd_tag(ctx.microbatch));
    MBD_CHECK_EQ(g.size() % dim_, 0u);
    const std::size_t cols = g.size() / dim_;
    return Flow::from_matrix(Matrix::from_data(dim_, cols, std::move(g)));
  }

  void update(float /*lr*/, float /*momentum*/) override {}
  void collect_params(std::vector<float>& /*out*/) override {}

 private:
  comm::Comm* comm_;
  int peer_;
  std::size_t dim_;  ///< boundary width: fc_out of this rank's last layer
};

/// Rank `rank`'s 1F1B tick order over `num_stages` local stages: w warmup
/// forwards (w = min(P−1−rank, M)), then (Fwd, Bwd) steady-state pairs,
/// then the w drain backwards. The tail rank (w = 0) strictly alternates.
/// Bwd ticks run in increasing microbatch order on every rank, satisfying
/// the engine's ∆W-completion rule.
ScheduleProgram one_f1b_program(std::size_t num_stages, int p, int rank,
                                std::size_t microbatches) {
  ScheduleProgram prog;
  prog.num_microbatches = microbatches;
  prog.ticks.reserve(2 * num_stages * microbatches);
  const auto fwd_mb = [&](std::size_t m) {
    for (std::size_t s = 0; s < num_stages; ++s)
      prog.ticks.push_back({ScheduleTick::Op::Fwd, s, m});
  };
  const auto bwd_mb = [&](std::size_t m) {
    for (std::size_t s = num_stages; s-- > 0;)
      prog.ticks.push_back({ScheduleTick::Op::Bwd, s, m});
  };
  const std::size_t warmup = std::min<std::size_t>(
      static_cast<std::size_t>(p - 1 - rank), microbatches);
  for (std::size_t m = 0; m < warmup; ++m) fwd_mb(m);
  for (std::size_t m = 0; m + warmup < microbatches; ++m) {
    fwd_mb(warmup + m);
    bwd_mb(m);
  }
  for (std::size_t m = microbatches - warmup; m < microbatches; ++m)
    bwd_mb(m);
  // Finalize the loss after the whole program: every rank reaches the
  // sum_loss reduction having finished all its ticks, regardless of where
  // its own last Fwd tick sat in the 1F1B interleaving.
  prog.loss_tick = prog.ticks.size() - 1;
  return prog;
}

}  // namespace

EngineLayout build_pipeline_layout(comm::Comm& comm,
                                   const TrainerOptions& opts,
                                   const std::vector<nn::LayerSpec>& specs,
                                   std::size_t batch) {
  const int p = comm.size();
  const int r = comm.rank();
  const std::size_t microbatches = opts.microbatches;
  const std::size_t num_layers = specs.size();
  MBD_CHECK_MSG(num_layers >= static_cast<std::size_t>(p),
                "pipeline trainer needs at least one layer per rank ("
                    << num_layers << " layers over " << p << " ranks)");
  MBD_CHECK_GT(microbatches, 0u);
  MBD_CHECK_LE(microbatches, batch);
  for (const auto& s : specs) {
    MBD_CHECK_MSG(s.kind == nn::LayerKind::FullyConnected,
                  "pipeline trainer supports MLPs only; '"
                      << s.name << "' is not fully connected");
  }

  const Range owned = block_range(num_layers, p, r);
  const std::size_t num_stages = static_cast<std::size_t>(r > 0) +
                                 owned.size() +
                                 static_cast<std::size_t>(r < p - 1);

  EngineLayout lay;
  // Every rank sees the whole replicated mini-batch; only the tail computes
  // logits, the other ranks contribute zero partials to the world loss sum.
  lay.sched.input_cols = {0, batch};
  lay.sched.label_cols = lay.sched.input_cols;
  lay.sched.sum_loss = true;
  lay.sched.loss_replicas = 1;
  lay.sched.mode = opts.mode;
  lay.sched.seconds_per_flop = opts.seconds_per_flop;
  lay.sched.compute_loss = r == p - 1;
  lay.sched.program = one_f1b_program(num_stages, p, r, microbatches);
  lay.input = {1, 0};
  // Only the tail rank ends the forward chain holding logits — one column
  // block covering the whole batch, owned by rank P−1.
  lay.output.parts = 1;
  lay.output.owners.push_back(p - 1);
  lay.d_in = specs.front().fc_in;
  lay.d_out = specs.back().fc_out;
  // Each layer's weights live on its owner only; train_layout broadcasts
  // them in layer order.
  for (int owner = 0; owner < p; ++owner) {
    const Range group = block_range(num_layers, p, owner);
    for (std::size_t l = group.lo; l < group.hi; ++l)
      lay.param_blocks.push_back({owner, specs[l].weight_count()});
  }

  if (r > 0)
    lay.stages.push_back(std::make_unique<PipeRecvStage>(
        &comm, r - 1, specs[owned.lo].fc_in));
  // Draw every layer from the shared stream (discarding the unowned ones)
  // so all ranks provably start from the sequential reference's weights.
  Rng rng(opts.seed);
  for (std::size_t l = 0; l < num_layers; ++l) {
    const auto& s = specs[l];
    Matrix w = he_init_full(s.fc_out, s.fc_in, rng);
    if (l < owned.lo || l >= owned.hi) continue;
    FcStage::Config c;
    c.d_in = s.fc_in;
    c.d_out = s.fc_out;
    c.relu_after = s.relu_after;
    c.model_group = nullptr;  // whole layers, never row-partitioned
    c.batch_group = nullptr;  // one replica of each weight — no ∆W reduce
    c.rows = {0, s.fc_out};
    c.compute_dx = l != 0;  // the data layer needs no ∆X
    lay.stages.push_back(std::make_unique<FcStage>(c, std::move(w)));
  }
  if (r < p - 1)
    lay.stages.push_back(std::make_unique<PipeSendStage>(
        &comm, r + 1, specs[owned.hi - 1].fc_out));
  return lay;
}

DistResult train_pipeline(comm::Comm& comm,
                          const std::vector<nn::LayerSpec>& specs,
                          const nn::Dataset& data, const nn::TrainConfig& cfg,
                          std::size_t microbatches, std::uint64_t seed,
                          ReduceMode mode, const RecoveryContext* recovery,
                          double seconds_per_flop) {
  const TrainerOptions opts{.grid = {}, .seed = seed, .mode = mode,
                            .seconds_per_flop = seconds_per_flop,
                            .microbatches = microbatches};
  return train_layout(comm, build_pipeline_layout(comm, opts, specs, cfg.batch),
                      data, cfg, recovery);
}

}  // namespace mbd::parallel
