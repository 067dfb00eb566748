#include "mbd/parallel/engine_layout.hpp"

#include <algorithm>
#include <utility>

#include "mbd/nn/layers.hpp"
#include "mbd/parallel/batch_parallel.hpp"
#include "mbd/parallel/domain_parallel.hpp"
#include "mbd/parallel/hybrid.hpp"
#include "mbd/parallel/integrated.hpp"
#include "mbd/parallel/mixed_grid.hpp"
#include "mbd/parallel/model_parallel.hpp"
#include "mbd/support/check.hpp"

namespace mbd::parallel {
namespace {

using costmodel::LayerRole;
using costmodel::ParallelPlan;
using costmodel::TrainerKind;
using tensor::Matrix;

// Domain front [0, k): scatter this rank's image rows, one conv stage per
// layer (halos within the Pr group, ∆W over the world, which replicates the
// weights), then gather the slabs back ("the halo is the whole input").
void push_domain_stack(EngineLayout& lay, comm::Comm& world,
                       comm::Comm* pr_group, const ParallelPlan& plan, int row,
                       const TrainerOptions& opts,
                       const std::vector<nn::LayerSpec>& specs, std::size_t k,
                       Rng& rng) {
  const tensor::ConvGeom& g0 = specs.front().conv;
  const Range rows = block_range(g0.in_h, plan.pr, row);
  // Each rank computes its slab's share of the conv work.
  const double slab_frac =
      static_cast<double>(rows.size()) / static_cast<double>(g0.in_h);
  lay.stages.push_back(
      std::make_unique<SlabScatterStage>(g0.in_c, g0.in_h, g0.in_w, rows));
  for (std::size_t i = 0; i < k; ++i) {
    const tensor::ConvGeom& g = specs[i].conv;
    detail::DomainConvState st;
    st.geom = g;
    st.relu_after = specs[i].relu_after;
    st.overlap_halo = opts.overlap_halo;
    st.w = he_init_full(g.out_c, g.in_c * g.kernel_h * g.kernel_w, rng);
    st.dw = Matrix(st.w.rows(), st.w.cols());
    st.vel = Matrix(st.w.rows(), st.w.cols());
    lay.stages.push_back(std::make_unique<DomainConvStage>(
        std::move(st), pr_group, &world,
        specs[i].macs_per_sample() * slab_frac));
  }
  const tensor::ConvGeom& gl = specs[k - 1].conv;
  lay.stages.push_back(std::make_unique<SlabGatherStage>(
      pr_group, gl.out_c, g0.in_h, gl.in_w, rows));
}

// Batch front [0, k) under Model layers (Fig. 7): the conv/pool layers on
// this rank's B/P columns, ∆W over the world, then the Eq. 6
// redistribution to the group's B/Pc columns.
void push_batch_stack(EngineLayout& lay, comm::Comm& world,
                      comm::Comm* pr_group, const ParallelPlan& plan, int row,
                      int col, const std::vector<nn::LayerSpec>& specs,
                      std::size_t k, Rng& rng) {
  nn::Network net;
  double macs = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const nn::LayerSpec& s = specs[i];
    if (s.kind == nn::LayerKind::Pool) {
      net.add(std::make_unique<nn::MaxPool2D>(s.name, s.conv));
      continue;
    }
    net.add(std::make_unique<nn::Conv2D>(s.name, s.conv, rng));
    if (s.relu_after) net.add(std::make_unique<nn::ReLU>(s.name + "_relu"));
    macs += s.macs_per_sample();
  }
  lay.stages.push_back(
      std::make_unique<NetworkStage>(std::move(net), &world, macs));
  lay.stages.push_back(std::make_unique<RedistributeStage>(
      pr_group, world.size(), plan.pr, col, /*conv_index=*/row,
      specs[k - 1].d_out()));
}

// build_layout with the options of an all-Batch plan's sequential network
// spelled out: train_batch_parallel passes its dropout settings here.
EngineLayout build(comm::Comm& comm, const ParallelPlan& plan,
                   const TrainerOptions& opts, const nn::BuildOptions& net,
                   const std::vector<nn::LayerSpec>& specs,
                   std::size_t batch) {
  costmodel::check_plan(plan, specs);
  const int p = comm.size();
  MBD_CHECK_EQ(plan.pr * plan.pc, p);
  const std::size_t n = specs.size();
  const std::size_t k = costmodel::front_layers(plan);
  const LayerRole front = plan.roles.front();
  const bool batch_front = front == LayerRole::Batch;
  // A Batch front splits the batch over all P ranks, everything else over
  // the Pc groups.
  MBD_CHECK_LE(static_cast<std::size_t>(batch_front ? p : plan.pc), batch);
  const int row = comm.rank() / plan.pc;  // Pr index: weight or image rows
  const int col = comm.rank() % plan.pc;  // Pc index: batch columns

  EngineLayout lay;
  if (plan.split) {
    // Pr group {(·, col)}: Y all-gather, ∆X all-reduce, halos, Eq. 6.
    // Pc group {(row, ·)}: the Model layers' ∆W all-reduce.
    lay.groups.push_back(
        std::make_unique<comm::Comm>(comm.split(/*color=*/col, /*key=*/row)));
    lay.groups.push_back(
        std::make_unique<comm::Comm>(comm.split(/*color=*/row, /*key=*/col)));
    MBD_CHECK_EQ(lay.groups[0]->size(), plan.pr);
    MBD_CHECK_EQ(lay.groups[1]->size(), plan.pc);
  }
  // Unsplit plans with a Pr role are P × 1: the world is the Pr group, and
  // there is no Pc group to reduce ∆W over.
  comm::Comm* pr_group = plan.split ? lay.groups[0].get() : &comm;
  comm::Comm* pc_group = plan.split ? lay.groups[1].get() : nullptr;

  lay.sched.mode = opts.mode;
  lay.sched.seconds_per_flop = opts.seconds_per_flop;
  lay.d_in = specs.front().d_in();
  lay.d_out = specs.back().d_out();
  if (!plan.split && plan.roles.back() != LayerRole::Batch) {
    // Model and domain: every rank reads the whole batch and ends with the
    // full logits, so the loss needs no reduction.
    lay.sched.input_cols = {0, batch};
    lay.sched.label_cols = lay.sched.input_cols;
    lay.input = {1, 0};
    lay.output.replicated = true;
  } else {
    // Column group j computes the loss of batch block j, replicated on its
    // Pr members; its row-0 member, global rank j, holds the logits. A
    // Batch stack under Model layers first runs on block col·Pr + row of
    // P, which nests inside the group's block.
    lay.input = batch_front && k < n ? InputSpec{p, col * plan.pr + row}
                                     : InputSpec{plan.pc, col};
    lay.sched.input_cols =
        block_range(batch, lay.input.parts, lay.input.index);
    lay.sched.label_cols = block_range(batch, plan.pc, col);
    lay.sched.sum_loss = true;
    lay.sched.loss_replicas = plan.pr;
    lay.output.parts = plan.pc;
    for (int j = 0; j < plan.pc; ++j) lay.output.owners.push_back(j);
  }

  if (batch_front && k == n) {
    // All Batch: the whole sequential network, every ∆W reduced over P.
    double macs = 0.0;
    for (const auto& s : specs) macs += s.macs_per_sample();
    lay.stages.push_back(std::make_unique<NetworkStage>(
        nn::build_network(specs, net), &comm, macs));
    return lay;
  }
  Rng rng(opts.seed);
  if (front == LayerRole::Domain)
    push_domain_stack(lay, comm, pr_group, plan, row, opts, specs, k, rng);
  if (batch_front)
    push_batch_stack(lay, comm, pr_group, plan, row, col, specs, k, rng);
  for (std::size_t i = k; i < n; ++i) {
    // Model rows split over Pr (Eq. 8); Replicated layers keep them all.
    const nn::LayerSpec& s = specs[i];
    const bool model = plan.roles[i] == LayerRole::Model;
    FcStage::Config c;
    c.d_in = s.fc_in;
    c.d_out = s.fc_out;
    c.relu_after = s.relu_after;
    c.model_group = model ? pr_group : nullptr;
    c.batch_group = model ? pc_group : nullptr;
    c.rows = model ? block_range(s.fc_out, plan.pr, row) : Range{0, s.fc_out};
    c.compute_dx = i > 0;  // the data layer needs no ∆X
    lay.stages.push_back(std::make_unique<FcStage>(
        c, he_init_rows(s.fc_out, s.fc_in, rng, c.rows)));
  }
  return lay;
}

// The pure trainers run on the whole communicator and ignore opts.grid.
ParallelPlan plan_for(TrainerKind kind, const comm::Comm& comm,
                      const TrainerOptions& opts,
                      const std::vector<nn::LayerSpec>& specs) {
  const bool grid = kind == TrainerKind::Integrated15D ||
                    kind == TrainerKind::Hybrid ||
                    kind == TrainerKind::MixedGrid;
  const GridShape g = grid ? opts.grid : GridShape{comm.size(), 1};
  return costmodel::named_plan(kind, specs, g.pr, g.pc);
}

DistResult train_named(TrainerKind kind, comm::Comm& comm,
                       const TrainerOptions& opts,
                       const std::vector<nn::LayerSpec>& specs,
                       const nn::Dataset& data, const nn::TrainConfig& cfg) {
  return train_layout(comm, named_layout(kind, comm, opts, specs, cfg.batch),
                      data, cfg, opts.recovery);
}

}  // namespace

EngineLayout build_layout(comm::Comm& comm, const ParallelPlan& plan,
                          const TrainerOptions& opts,
                          const std::vector<nn::LayerSpec>& specs,
                          std::size_t batch) {
  return build(comm, plan, opts, nn::BuildOptions{.seed = opts.seed}, specs,
               batch);
}

EngineLayout named_layout(TrainerKind kind, comm::Comm& comm,
                          const TrainerOptions& opts,
                          const std::vector<nn::LayerSpec>& specs,
                          std::size_t batch) {
  return build_layout(comm, plan_for(kind, comm, opts, specs), opts, specs,
                      batch);
}

DistResult train_layout(comm::Comm& comm, EngineLayout layout,
                        const nn::Dataset& data, const nn::TrainConfig& cfg,
                        const RecoveryContext* recovery) {
  MBD_CHECK(!layout.stages.empty());
  LayerEngine engine(comm, layout.sched);
  for (auto& s : layout.stages) engine.add_stage(std::move(s));
  // layout.groups stays alive in this frame until train returns — the
  // stages' group pointers reference it.
  DistResult res = engine.train(data, cfg, recovery);
  if (layout.param_blocks.empty()) return res;
  // Each block's owner broadcasts it, in block order. This is setup traffic
  // after the last engine-step marker, excluded from per-iteration
  // accounting like the other layouts' collect_params all-gathers.
  std::vector<float> full;
  std::size_t local_at = 0;
  for (const ParamBlock& b : layout.param_blocks) {
    std::vector<float> buf(b.size);
    if (b.owner == comm.rank()) {
      MBD_CHECK_LE(local_at + buf.size(), res.params.size());
      std::copy_n(res.params.begin() + static_cast<std::ptrdiff_t>(local_at),
                  buf.size(), buf.begin());
      local_at += buf.size();
    }
    comm.broadcast(std::span<float>(buf), b.owner);
    full.insert(full.end(), buf.begin(), buf.end());
  }
  res.params = std::move(full);
  return res;
}

// --- the six named trainers' entry points ----------------------------------

DistResult train_model_parallel(comm::Comm& comm,
                                const std::vector<nn::LayerSpec>& specs,
                                const nn::Dataset& data,
                                const nn::TrainConfig& cfg,
                                std::uint64_t seed, ReduceMode mode,
                                const RecoveryContext* recovery,
                                double seconds_per_flop) {
  return train_named(TrainerKind::ModelParallel, comm,
                     {.grid = {}, .seed = seed, .mode = mode,
                      .seconds_per_flop = seconds_per_flop,
                      .recovery = recovery},
                     specs, data, cfg);
}

DistResult train_batch_parallel(comm::Comm& comm,
                                const std::vector<nn::LayerSpec>& specs,
                                const nn::Dataset& data,
                                const nn::TrainConfig& cfg,
                                const nn::BuildOptions& build_opts,
                                ReduceMode mode,
                                const RecoveryContext* recovery,
                                double seconds_per_flop) {
  const TrainerOptions opts{.grid = {}, .seed = build_opts.seed, .mode = mode,
                            .seconds_per_flop = seconds_per_flop};
  return train_layout(
      comm,
      build(comm, plan_for(TrainerKind::BatchParallel, comm, opts, specs),
            opts, build_opts, specs, cfg.batch),
      data, cfg, recovery);
}

DistResult train_integrated_15d(comm::Comm& comm, GridShape grid,
                                const std::vector<nn::LayerSpec>& specs,
                                const nn::Dataset& data,
                                const nn::TrainConfig& cfg,
                                std::uint64_t seed, ReduceMode mode,
                                double seconds_per_flop,
                                const RecoveryContext* recovery) {
  return train_named(TrainerKind::Integrated15D, comm,
                     {.grid = grid, .seed = seed, .mode = mode,
                      .seconds_per_flop = seconds_per_flop,
                      .recovery = recovery},
                     specs, data, cfg);
}

DistResult train_domain_parallel(comm::Comm& comm,
                                 const std::vector<nn::LayerSpec>& specs,
                                 const nn::Dataset& data,
                                 const nn::TrainConfig& cfg,
                                 std::uint64_t seed, bool overlap_halo,
                                 ReduceMode mode,
                                 const RecoveryContext* recovery,
                                 double seconds_per_flop) {
  return train_named(TrainerKind::DomainParallel, comm,
                     {.grid = {}, .seed = seed, .mode = mode,
                      .seconds_per_flop = seconds_per_flop,
                      .recovery = recovery, .overlap_halo = overlap_halo},
                     specs, data, cfg);
}

DistResult train_hybrid(comm::Comm& comm, GridShape grid,
                        const std::vector<nn::LayerSpec>& specs,
                        const nn::Dataset& data, const nn::TrainConfig& cfg,
                        std::uint64_t seed, bool overlap_halo,
                        ReduceMode mode, const RecoveryContext* recovery,
                        double seconds_per_flop) {
  return train_named(TrainerKind::Hybrid, comm,
                     {.grid = grid, .seed = seed, .mode = mode,
                      .seconds_per_flop = seconds_per_flop,
                      .recovery = recovery, .overlap_halo = overlap_halo},
                     specs, data, cfg);
}

DistResult train_mixed_grid(comm::Comm& comm, GridShape grid,
                            const std::vector<nn::LayerSpec>& specs,
                            const nn::Dataset& data,
                            const nn::TrainConfig& cfg, std::uint64_t seed,
                            ReduceMode mode, const RecoveryContext* recovery,
                            double seconds_per_flop) {
  return train_named(TrainerKind::MixedGrid, comm,
                     {.grid = grid, .seed = seed, .mode = mode,
                      .seconds_per_flop = seconds_per_flop,
                      .recovery = recovery},
                     specs, data, cfg);
}

}  // namespace mbd::parallel
