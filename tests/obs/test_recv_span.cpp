// A blocking Comm::recv is communication on the timeline: a pipeline rank
// waiting for its upstream neighbour's activations must show a CollWait
// span inside its pipe_recv stage, so the bubble does not read as the
// stage's own time.
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "mbd/comm/world.hpp"
#include "mbd/nn/models.hpp"
#include "mbd/obs/profiler.hpp"
#include "mbd/parallel/pipeline.hpp"

namespace mbd::obs {
namespace {

#if MBD_OBS_PROFILER

bool contains(const Span& outer, const Span& inner) {
  return inner.t0_ns >= outer.t0_ns && inner.t1_ns <= outer.t1_ns;
}

TEST(RecvSpan, EveryPipeRecvStageWaitsInARecvSpan) {
  const bool was_enabled = profiling_enabled();
  reset_timeline();
  enable_profiling(true);
  const auto specs = nn::mlp_spec({12, 16, 14, 12, 8});
  const auto data = nn::make_synthetic_dataset(12, 8, 24, 5);
  nn::TrainConfig cfg;
  cfg.batch = 8;
  cfg.iterations = 2;
  comm::World world(4);
  world.run([&](comm::Comm& c) {
    (void)parallel::train_pipeline(c, specs, data, cfg, /*microbatches=*/2);
  });
  const TimelineSnapshot snap = snapshot_timeline();
  enable_profiling(was_enabled);
  reset_timeline();

  std::size_t stages = 0;
  for (const ThreadTimeline& t : snap.threads) {
    std::vector<const Span*> recvs;
    for (const Span& s : t.spans)
      if (s.kind == SpanKind::CollWait && std::string_view(s.label) == "recv")
        recvs.push_back(&s);
    for (const Span& s : t.spans) {
      if (s.kind != SpanKind::StageFwd ||
          std::string_view(s.label) != "pipe_recv")
        continue;
      ++stages;
      const auto inside = std::find_if(
          recvs.begin(), recvs.end(),
          [&](const Span* r) { return contains(s, *r); });
      ASSERT_NE(inside, recvs.end())
          << "rank " << t.rank << " pipe_recv span " << s.seq
          << " holds no recv span";
      // The span carries the received bytes: a whole number of floats.
      EXPECT_GT((*inside)->arg0, 0U);
      EXPECT_EQ((*inside)->arg0 % sizeof(float), 0U);
    }
  }
  // Ranks 1..3 each receive 2 microbatches per iteration for 2 iterations.
  EXPECT_EQ(stages, 3U * 2U * 2U);
}

#endif  // MBD_OBS_PROFILER

}  // namespace
}  // namespace mbd::obs
