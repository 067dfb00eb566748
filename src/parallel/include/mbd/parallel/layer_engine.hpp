// The shared layer-engine behind every distributed trainer.
//
// Each of the six trainers (model-, batch-, domain-parallel, 1.5D
// integrated, hybrid, mixed-grid) used to carry its own copy of the same
// training loop: slice the mini-batch, run the stages forward, evaluate the
// softmax loss, run the stages backward while reducing weight gradients,
// apply momentum SGD, and finally assemble the replicated parameter vector.
// The engine owns that loop once; a trainer is reduced to *configuration* —
// it picks the stages (partitioned FC layer, domain-decomposed conv stack,
// whole sequential network, Eq. 6 redistribution, ...) and a StepSchedule
// (which batch columns this rank owns, how the loss partials combine, and
// whether gradient reductions block or overlap with compute).
//
// Overlap (ReduceMode::Overlapped) is *executable*, not modeled: ∆W ring
// all-reduces are issued as nonblocking collectives (mbd/comm/nonblocking.hpp)
// and drained behind the remaining layers' GEMMs; ∆X all-reduces hide behind
// the same layer's ∆W GEMM. The nonblocking ring runs the same round program
// as the blocking one, so byte counts (costmodel::trainer_rank_volume) and
// numerics match the blocking mode bit for bit.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "mbd/comm/comm.hpp"
#include "mbd/nn/network.hpp"
#include "mbd/nn/trainer.hpp"
#include "mbd/parallel/common.hpp"
#include "mbd/parallel/detail/domain_conv.hpp"
#include "mbd/parallel/recovery.hpp"
#include "mbd/support/check.hpp"
#include "mbd/tensor/matrix.hpp"
#include "mbd/tensor/tensor4.hpp"

namespace mbd::parallel {

/// Per-iteration facts the engine hands to every stage.
struct StepContext {
  std::size_t iteration = 0;
  std::size_t batch = 0;         ///< global mini-batch size B
  std::size_t first_sample = 0;  ///< dataset index of this rank's first column
  comm::Comm* world = nullptr;   ///< the full communicator
  ReduceMode mode = ReduceMode::Blocking;
  /// When > 0, stages log `flops * seconds_per_flop` of modeled compute into
  /// the trace (Comm::annotate_compute) so replay can measure how much
  /// communication the overlapped schedule actually hides.
  double seconds_per_flop = 0.0;
  /// Which microbatch the current tick operates on, and how many the
  /// iteration's schedule program runs. Degenerate (whole-minibatch)
  /// programs always see microbatch 0 of 1.
  std::size_t microbatch = 0;
  std::size_t num_microbatches = 1;
  /// True on a stage's final Bwd tick of the iteration: the point where its
  /// accumulated ∆W is complete and any cross-rank ∆W reduction must run.
  bool last_backward = true;

  void annotate(double flops) const;
};

/// One tick of a schedule program: run one stage's forward or backward on
/// one microbatch.
struct ScheduleTick {
  enum class Op : std::uint8_t { Fwd, Bwd };
  Op op = Op::Fwd;
  std::size_t stage = 0;       ///< index into the engine's stage list
  std::size_t microbatch = 0;  ///< which microbatch the tick operates on
};

/// The per-iteration execution program the engine interprets. Empty ticks
/// mean the degenerate program: every stage Fwd first-to-last, then Bwd
/// last-to-first, over the whole minibatch as microbatch 0 of 1 — exactly
/// the classic fwd-all/bwd-all loop the six original trainers run.
///
/// Determinism rules (what keeps every program bitwise-reproducible):
/// * every (stage, microbatch) pair gets exactly one Fwd and one Bwd tick;
/// * a stage's Bwd ticks run in increasing microbatch order, so its final
///   Bwd tick (microbatch M−1) is the fixed point where ∆W reductions fire;
/// * weights are versioned per iteration: every tick of iteration `it`
///   reads the weights produced by iteration `it−1`, and the accumulated
///   gradient applies once at the end-of-iteration update tick — never
///   "when ready".
struct ScheduleProgram {
  std::vector<ScheduleTick> ticks;
  std::size_t num_microbatches = 1;
  /// Tick index after which the iteration loss is finalized (summed over
  /// the world when StepSchedule::sum_loss, then recorded). The default
  /// builder puts this at the last Fwd tick so the degenerate program
  /// matches the classic loop's loss-between-passes order.
  std::size_t loss_tick = 0;
};

/// What a trainer tells the engine about one training step.
struct StepSchedule {
  Range input_cols;  ///< this rank's input columns within [0, B)
  Range label_cols;  ///< columns the loss is evaluated on (== input_cols
                     ///< unless a redistribution stage changes the layout)
  bool sum_loss = false;     ///< sum loss partials over the world?
  double loss_replicas = 1;  ///< how often each partial is replicated in it
  ReduceMode mode = ReduceMode::Blocking;
  double seconds_per_flop = 0.0;  ///< see StepContext
  /// False on ranks whose last stage yields no logits (pipeline ranks below
  /// the tail); they still participate in the sum_loss reduction with a
  /// zero partial.
  bool compute_loss = true;
  /// The iteration's tick program; empty ticks = degenerate program.
  ScheduleProgram program;
};

/// Collects the ∆W reductions of one backward pass. Blocking mode reduces in
/// place; Overlapped mode issues nonblocking ring all-reduces and drains them
/// all before the SGD update (the gradient buffers stay live until then, so
/// overlap is safe). Draining in initiation order keeps the receive side of
/// every reduction at a deterministic program point — important for traces.
class GradReducer {
 public:
  explicit GradReducer(ReduceMode mode) : mode_(mode) {}

  /// Reduce `grads` over `group` (sum). No-op traffic when group has 1 rank.
  void allreduce(comm::Comm& group, std::span<float> grads);
  /// Complete every pending reduction (must run before the weights update).
  void drain();

 private:
  ReduceMode mode_;
  std::vector<comm::CollectiveHandle> pending_;
};

/// The value flowing between stages: activations forward, gradients
/// backward. Either a matrix (d × B_local, one column per sample) or an NCHW
/// tensor (the domain-decomposed conv stages).
struct Flow {
  tensor::Matrix mat;
  tensor::Tensor4 ten;
  bool is_tensor = false;

  static Flow from_matrix(tensor::Matrix m) {
    Flow f;
    f.mat = std::move(m);
    return f;
  }
  static Flow from_tensor(tensor::Tensor4 t) {
    Flow f;
    f.ten = std::move(t);
    f.is_tensor = true;
    return f;
  }
  tensor::Matrix& as_matrix() {
    MBD_CHECK_MSG(!is_tensor, "stage expected a matrix flow");
    return mat;
  }
  tensor::Tensor4& as_tensor() {
    MBD_CHECK_MSG(is_tensor, "stage expected a tensor flow");
    return ten;
  }
};

/// One stop of the per-iteration schedule: owns its parameter shard and
/// momentum state, knows its own communication pattern.
class EngineStage {
 public:
  virtual ~EngineStage() = default;
  EngineStage() = default;
  EngineStage(const EngineStage&) = delete;
  EngineStage& operator=(const EngineStage&) = delete;

  /// Static label used by the timeline profiler for this stage's
  /// StageFwd/StageBwd spans. Must return a string literal.
  virtual const char* name() const { return "stage"; }

  /// Called once per iteration before the forward pass.
  virtual void begin_iteration(const StepContext& /*ctx*/) {}
  /// Whether the stage keeps per-microbatch activation stashes and
  /// accumulates ∆W across Bwd ticks. The engine refuses multi-microbatch
  /// programs over stages that do not.
  virtual bool supports_microbatching() const { return false; }
  virtual Flow forward(Flow in, const StepContext& ctx) = 0;
  /// Consumes the gradient at this stage's output, registers its ∆W
  /// reductions with `red`, returns the gradient at its input (an empty
  /// Flow if the stage below needs none).
  virtual Flow backward(Flow grad, const StepContext& ctx,
                        GradReducer& red) = 0;
  virtual void update(float lr, float momentum) = 0;
  /// Append this stage's parameters in the full (unpartitioned) layout.
  virtual void collect_params(std::vector<float>& out) = 0;

  /// Append this rank's persistent training state (weight shard + momentum
  /// velocities; forward scratch is per-iteration and excluded). Stateless
  /// stages append nothing.
  virtual void save_state(std::vector<float>& /*out*/) {}
  /// Restore state written by save_state, consuming this stage's prefix of
  /// `in` (the span is advanced past what was read).
  virtual void restore_state(std::span<const float>& /*in*/) {}
};

/// Row-partitioned (or replicated) fully connected layer with optional ReLU:
/// the layer math of the model-parallel, 1.5D, hybrid, and mixed trainers,
/// and — with no groups — the replicated FC tail of the domain trainer.
class FcStage final : public EngineStage {
 public:
  struct Config {
    std::size_t d_in = 0, d_out = 0;
    bool relu_after = false;
    /// Row-partition group (forward all-gather of Y, ∆X all-reduce);
    /// nullptr = weights replicated, no model communication.
    comm::Comm* model_group = nullptr;
    /// ∆W all-reduce group; nullptr (or a 1-rank group) = no ∆W reduction.
    comm::Comm* batch_group = nullptr;
    Range rows;  ///< owned rows of W (== {0, d_out} when replicated)
    bool compute_dx = true;  ///< false for the bottom layer of an FC-only net
  };

  FcStage(const Config& cfg, tensor::Matrix w);

  const char* name() const override { return "fc"; }
  bool supports_microbatching() const override { return true; }
  void begin_iteration(const StepContext& ctx) override;
  Flow forward(Flow in, const StepContext& ctx) override;
  Flow backward(Flow grad, const StepContext& ctx, GradReducer& red) override;
  void update(float lr, float momentum) override;
  void collect_params(std::vector<float>& out) override;
  void save_state(std::vector<float>& out) override;
  void restore_state(std::span<const float>& in) override;

 private:
  Config cfg_;
  tensor::Matrix w_, dw_, vel_;  // rows.size() × d_in
  /// Forward state, stashed per microbatch (size 1 for whole-minibatch
  /// programs): the Bwd tick of microbatch m reads exactly its own stash.
  std::vector<tensor::Matrix> x_, y_pre_;
  tensor::Matrix dw_scratch_;  ///< per-microbatch ∆W before accumulation
  bool accumulate_dw_ = false;
};

/// A sequential nn::Network on this rank's batch columns with replicated
/// weights — the Batch role: the batch trainer's whole network, or the
/// mixed grid's conv/pool stack below its Model layers. Every layer's ∆W is
/// all-reduced over `reduce_group`.
class NetworkStage final : public EngineStage {
 public:
  /// `macs_per_sample` is the network's forward multiply-accumulate count
  /// per sample (nn::LayerSpec::macs_per_sample summed); it feeds
  /// StepContext::annotate so replay prediction works for this stage.
  NetworkStage(nn::Network net, comm::Comm* reduce_group,
               double macs_per_sample = 0.0);

  const char* name() const override { return "network"; }
  void begin_iteration(const StepContext& ctx) override;
  Flow forward(Flow in, const StepContext& ctx) override;
  Flow backward(Flow grad, const StepContext& ctx, GradReducer& red) override;
  void update(float lr, float momentum) override;
  void collect_params(std::vector<float>& out) override;
  void save_state(std::vector<float>& out) override;
  void restore_state(std::span<const float>& in) override;

 private:
  nn::Network net_;
  comm::Comm* reduce_group_;
  double macs_per_sample_;
};

/// One domain-decomposed conv layer on a height slab (Fig. 3): halo
/// exchanges within `conv_group`, ∆W all-reduced over `reduce_group`
/// (the full world when the weights are replicated everywhere).
class DomainConvStage final : public EngineStage {
 public:
  DomainConvStage(detail::DomainConvState state, comm::Comm* conv_group,
                  comm::Comm* reduce_group, double macs_per_sample = 0.0);

  const char* name() const override { return "domain_conv"; }
  Flow forward(Flow in, const StepContext& ctx) override;
  Flow backward(Flow grad, const StepContext& ctx, GradReducer& red) override;
  void update(float lr, float momentum) override;
  void collect_params(std::vector<float>& out) override;
  void save_state(std::vector<float>& out) override;
  void restore_state(std::span<const float>& in) override;

 private:
  detail::DomainConvState st_;
  comm::Comm* conv_group_;
  comm::Comm* reduce_group_;
  double macs_per_sample_;
};

/// Entry into a domain-decomposed conv stack: reshapes the replicated batch
/// matrix to NCHW and keeps this rank's height rows. Backward discards the
/// input gradient (the data layer needs none).
class SlabScatterStage final : public EngineStage {
 public:
  SlabScatterStage(std::size_t in_c, std::size_t in_h, std::size_t in_w,
                   Range rows);

  const char* name() const override { return "slab_scatter"; }
  Flow forward(Flow in, const StepContext& ctx) override;
  Flow backward(Flow grad, const StepContext& ctx, GradReducer& red) override;
  void update(float /*lr*/, float /*momentum*/) override {}
  void collect_params(std::vector<float>& /*out*/) override {}

 private:
  std::size_t in_c_, in_h_, in_w_;
  Range rows_;
};

/// Exit from a domain-decomposed conv stack: all-gathers the height slabs
/// within `group` into the full activation matrix ("the halo is the whole
/// input"); backward slices this rank's slab rows back out.
class SlabGatherStage final : public EngineStage {
 public:
  SlabGatherStage(comm::Comm* group, std::size_t out_c, std::size_t img_h,
                  std::size_t img_w, Range rows);

  const char* name() const override { return "slab_gather"; }
  Flow forward(Flow in, const StepContext& ctx) override;
  Flow backward(Flow grad, const StepContext& ctx, GradReducer& red) override;
  void update(float /*lr*/, float /*momentum*/) override {}
  void collect_params(std::vector<float>& /*out*/) override {}

 private:
  comm::Comm* group_;
  std::size_t out_c_, img_h_, img_w_;
  Range rows_;
};

/// The mixed-grid trainer's Eq. 6 redistribution: all-gather the conv-phase
/// B/P column blocks within the model group so each rank holds its FC-phase
/// B/Pc columns; backward slices this rank's conv columns back out. Column
/// ranges are derived from StepContext::batch per call (the canonical block
/// partition at whatever batch the executor runs), so one stage serves both
/// the fixed training batch and variable-size inference batches.
class RedistributeStage final : public EngineStage {
 public:
  /// `conv_index` is this rank's block index within its model group (the
  /// `i` of conv block j·Pr + i — its row coordinate on the grid).
  RedistributeStage(comm::Comm* model_group, int world_size, int pr, int col,
                    int conv_index, std::size_t d_out);

  const char* name() const override { return "redistribute"; }
  Flow forward(Flow in, const StepContext& ctx) override;
  Flow backward(Flow grad, const StepContext& ctx, GradReducer& red) override;
  void update(float /*lr*/, float /*momentum*/) override {}
  void collect_params(std::vector<float>& /*out*/) override {}

 private:
  comm::Comm* model_group_;
  int world_size_, pr_, col_, conv_index_;
  std::size_t d_out_;
};

/// The one training loop shared by all trainers. Each iteration interprets
/// the StepSchedule's tick program (degenerate fwd-all/bwd-all unless a
/// trainer installs its own, e.g. the 1F1B pipeline); the gradient reducer
/// is drained before the end-of-iteration SGD update — the fixed tick where
/// every accumulated gradient applies — and parameters are collected in
/// stage order.
class LayerEngine {
 public:
  LayerEngine(comm::Comm& world, StepSchedule sched);

  void add_stage(std::unique_ptr<EngineStage> stage);

  /// Run the training loop. With a RecoveryContext, training (re)starts
  /// from the store's last committed checkpoint when one exists and
  /// checkpoints every policy.every steps (barrier-coordinated, see
  /// recovery.hpp) — the restart half of World::run_restartable.
  DistResult train(const nn::Dataset& data, const nn::TrainConfig& cfg,
                   const RecoveryContext* recovery = nullptr);

 private:
  ScheduleProgram degenerate_program() const;
  void validate_program(const ScheduleProgram& prog) const;
  void save_checkpoint(const RecoveryContext& rc, std::size_t next_step,
                       const std::vector<double>& losses);
  std::size_t restore_checkpoint(const RecoveryContext& rc,
                                 std::vector<double>& losses);

  comm::Comm* world_;
  StepSchedule sched_;
  std::vector<std::unique_ptr<EngineStage>> stages_;
};

}  // namespace mbd::parallel
