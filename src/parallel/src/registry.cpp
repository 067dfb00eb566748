// The one trainer table. Sweep tools (mbd_analyze, mbd_launch, obs_smoke)
// and the analyzer's extraction dispatch iterate this registry instead of
// keeping their own trainer lists.
#include <array>

#include "mbd/parallel/common.hpp"
#include "mbd/parallel/engine_layout.hpp"
#include "mbd/parallel/pipeline.hpp"
#include "mbd/support/check.hpp"

namespace mbd::parallel {
namespace {

using costmodel::TrainerKind;

// Every row's entry points: the layout (a named plan, or the pipeline's own
// builder) trained by train_layout.
template <TrainerKind K>
EngineLayout layout(comm::Comm& c, const TrainerOptions& o,
                    const std::vector<nn::LayerSpec>& specs,
                    std::size_t batch) {
  if constexpr (K == TrainerKind::Pipeline) {
    return build_pipeline_layout(c, o, specs, batch);
  } else {
    return named_layout(K, c, o, specs, batch);
  }
}

template <TrainerKind K>
DistResult run(comm::Comm& c, const TrainerOptions& o,
               const std::vector<nn::LayerSpec>& specs,
               const nn::Dataset& data, const nn::TrainConfig& cfg) {
  return train_layout(c, layout<K>(c, o, specs, cfg.batch), data, cfg,
                      o.recovery);
}

constexpr std::array<TrainerEntry, 7> kRegistry{{
    {TrainerKind::ModelParallel, "model", "model", TrainerWorkload::Mlp,
     run<TrainerKind::ModelParallel>, layout<TrainerKind::ModelParallel>},
    {TrainerKind::BatchParallel, "batch", "batch", TrainerWorkload::Mlp,
     run<TrainerKind::BatchParallel>, layout<TrainerKind::BatchParallel>},
    {TrainerKind::Integrated15D, "integrated", "integrated_15d",
     TrainerWorkload::Mlp, run<TrainerKind::Integrated15D>,
     layout<TrainerKind::Integrated15D>},
    {TrainerKind::MixedGrid, "mixed", "mixed_grid", TrainerWorkload::ConvPool,
     run<TrainerKind::MixedGrid>, layout<TrainerKind::MixedGrid>},
    {TrainerKind::DomainParallel, "domain", "domain",
     TrainerWorkload::ConvHalo, run<TrainerKind::DomainParallel>,
     layout<TrainerKind::DomainParallel>},
    {TrainerKind::Hybrid, "hybrid", "hybrid", TrainerWorkload::ConvHalo,
     run<TrainerKind::Hybrid>, layout<TrainerKind::Hybrid>},
    {TrainerKind::Pipeline, "pipeline", "pipeline", TrainerWorkload::DeepMlp,
     run<TrainerKind::Pipeline>, layout<TrainerKind::Pipeline>},
}};

}  // namespace

std::span<const TrainerEntry> trainer_registry() { return kRegistry; }

const TrainerEntry* find_trainer(std::string_view name) {
  for (const TrainerEntry& e : kRegistry)
    if (e.name == name || e.launch_name == name) return &e;
  return nullptr;
}

const TrainerEntry& trainer_for(costmodel::TrainerKind kind) {
  for (const TrainerEntry& e : kRegistry)
    if (e.kind == kind) return e;
  MBD_CHECK(false);
  return kRegistry[0];
}

}  // namespace mbd::parallel
