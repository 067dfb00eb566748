// Every check behind the six collective registry layouts, as one table.
// Each row takes a configuration the named layout accepts (the Accepts
// cases below build them all) and breaks exactly one property; the
// registry's layout function must then refuse it with mbd::Error instead of
// building a layout that deadlocks or computes garbage.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mbd/comm/world.hpp"
#include "mbd/nn/layer_spec.hpp"
#include "mbd/nn/models.hpp"
#include "mbd/parallel/common.hpp"
#include "mbd/parallel/engine_layout.hpp"
#include "mbd/support/check.hpp"

namespace mbd::parallel {
namespace {

struct LayoutCase {
  std::string name;     ///< gtest parameter label
  std::string trainer;  ///< registry name
  int ranks = 4;
  GridShape grid{2, 2};
  std::vector<nn::LayerSpec> specs;
  std::size_t batch = 8;
};

std::vector<nn::LayerSpec> mlp() { return nn::mlp_spec({24, 32, 10}); }

// Stride-1 same-pad convs and an FC tail: the halo trainers' workload.
std::vector<nn::LayerSpec> halo_net() {
  return {nn::conv_spec("conv1", 2, 8, 8, 4, 3, 1, 1),
          nn::conv_spec("conv2", 4, 8, 8, 4, 3, 1, 1),
          nn::fc_spec("fc1", 4 * 8 * 8, 16),
          nn::fc_spec("fc2", 16, 4, false)};
}

// Convs, a pool and an FC tail: the mixed grid's workload.
std::vector<nn::LayerSpec> pooled_net() { return nn::small_cnn_spec(2, 8, 4); }

// A net whose second conv comes after an FC layer.
std::vector<nn::LayerSpec> conv_after_fc() {
  return {nn::conv_spec("conv1", 2, 8, 8, 2, 3, 1, 1),
          nn::fc_spec("fc1", 2 * 8 * 8, 2 * 8 * 8),
          nn::conv_spec("conv2", 2, 8, 8, 2, 3, 1, 1),
          nn::fc_spec("fc2", 2 * 8 * 8, 4, false)};
}

// A halo net with `conv` as its only conv layer.
std::vector<nn::LayerSpec> one_conv(const nn::LayerSpec& conv) {
  return {conv, nn::fc_spec("fc1", conv.d_out(), 4, false)};
}

std::vector<LayoutCase> accepted() {
  return {{"model", "model", 4, {4, 1}, mlp()},
          {"batch", "batch", 4, {1, 4}, mlp()},
          {"integrated", "integrated_15d", 4, {2, 2}, mlp()},
          {"domain", "domain", 4, {4, 1}, halo_net()},
          {"hybrid", "hybrid", 4, {2, 2}, halo_net()},
          {"mixed", "mixed_grid", 4, {2, 2}, pooled_net()}};
}

std::vector<LayoutCase> rejected() {
  std::vector<LayoutCase> cases;
  const auto add = [&](std::string name, std::string trainer, int ranks,
                       GridShape grid, std::vector<nn::LayerSpec> specs,
                       std::size_t batch = 8) {
    cases.push_back({std::move(name), std::move(trainer), ranks, grid,
                     std::move(specs), batch});
  };
  const auto strided = nn::conv_spec("strided", 2, 8, 8, 2, 3, 2, 1);
  const auto even_kernel = nn::conv_spec("even", 2, 8, 8, 2, 2, 1, 1);
  const auto valid_pad = nn::conv_spec("valid", 2, 8, 8, 2, 3, 1, 0);
  const auto short_image = nn::conv_spec("short", 1, 2, 2, 1, 3, 1, 1);
  auto heights_differ = halo_net();
  heights_differ[1] = nn::conv_spec("conv2", 4, 6, 8, 4, 3, 1, 1);
  heights_differ[2] = nn::fc_spec("fc1", 4 * 6 * 8, 16);
  auto halo_pooled = halo_net();
  halo_pooled.insert(halo_pooled.begin() + 2,
                     nn::pool_spec("pool", 4, 8, 8, 2, 2));
  halo_pooled[3] = nn::fc_spec("fc1", 4 * 4 * 4, 16);
  auto convs_only = halo_net();
  convs_only.resize(2);
  auto pool_after_fc = pooled_net();
  std::swap(pool_after_fc[2], pool_after_fc[3]);
  auto pooled_no_fc = pooled_net();
  pooled_no_fc.resize(3);
  auto width_mismatch = pooled_net();
  width_mismatch[3] = nn::fc_spec("fc1", 100, 32);

  add("model_conv_layer", "model", 2, {2, 1}, halo_net());
  add("model_no_layers", "model", 2, {2, 1}, {});

  add("batch_more_ranks_than_samples", "batch", 4, {1, 4}, mlp(), 2);
  add("batch_no_layers", "batch", 2, {1, 2}, {});

  add("integrated_grid_not_world", "integrated_15d", 4, {3, 2}, mlp());
  add("integrated_pc_above_batch", "integrated_15d", 4, {1, 4}, mlp(), 3);
  add("integrated_conv_layer", "integrated_15d", 4, {2, 2}, halo_net());
  add("integrated_no_layers", "integrated_15d", 4, {2, 2}, {});

  add("domain_conv_after_fc", "domain", 2, {2, 1}, conv_after_fc());
  add("domain_strided_conv", "domain", 2, {2, 1}, one_conv(strided));
  add("domain_even_kernel", "domain", 2, {2, 1}, one_conv(even_kernel));
  add("domain_not_same_padded", "domain", 2, {2, 1}, one_conv(valid_pad));
  add("domain_conv_heights_differ", "domain", 2, {2, 1}, heights_differ);
  add("domain_pooling", "domain", 2, {2, 1}, halo_pooled);
  add("domain_no_conv", "domain", 2, {2, 1}, mlp());
  add("domain_more_ranks_than_rows", "domain", 3, {3, 1},
      one_conv(short_image));
  add("domain_no_layers", "domain", 2, {2, 1}, {});

  add("hybrid_grid_not_world", "hybrid", 4, {3, 1}, halo_net());
  add("hybrid_pc_above_batch", "hybrid", 4, {1, 4}, halo_net(), 3);
  add("hybrid_strided_conv", "hybrid", 4, {2, 2}, one_conv(strided));
  add("hybrid_more_pr_than_rows", "hybrid", 4, {4, 1},
      one_conv(short_image));
  add("hybrid_conv_after_fc", "hybrid", 4, {2, 2}, conv_after_fc());
  add("hybrid_pooling", "hybrid", 4, {2, 2}, halo_pooled);
  add("hybrid_no_conv", "hybrid", 4, {2, 2}, mlp());
  add("hybrid_no_fc", "hybrid", 4, {2, 2}, convs_only);
  add("hybrid_no_layers", "hybrid", 4, {2, 2}, {});

  add("mixed_grid_not_world", "mixed_grid", 4, {3, 2}, pooled_net());
  add("mixed_more_ranks_than_samples", "mixed_grid", 4, {2, 2}, pooled_net(),
      3);
  add("mixed_conv_after_fc", "mixed_grid", 4, {2, 2}, conv_after_fc());
  add("mixed_pool_after_fc", "mixed_grid", 4, {2, 2}, pool_after_fc);
  add("mixed_no_conv", "mixed_grid", 4, {2, 2}, mlp());
  add("mixed_no_fc", "mixed_grid", 4, {2, 2}, pooled_no_fc);
  add("mixed_conv_width_not_fc_in", "mixed_grid", 4, {2, 2}, width_mismatch);
  add("mixed_no_layers", "mixed_grid", 4, {2, 2}, {});
  return cases;
}

void build(const LayoutCase& c) {
  const TrainerEntry* e = find_trainer(c.trainer);
  ASSERT_NE(e, nullptr) << c.trainer;
  TrainerOptions opts;
  opts.grid = c.grid;
  comm::World world(c.ranks);
  world.run([&](comm::Comm& comm) {
    (void)e->layout(comm, opts, c.specs, c.batch);
  });
}

std::string case_name(const ::testing::TestParamInfo<LayoutCase>& info) {
  return info.param.name;
}

class LayoutAccepts : public ::testing::TestWithParam<LayoutCase> {};
class LayoutRejects : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(LayoutAccepts, Builds) { EXPECT_NO_THROW(build(GetParam())); }

TEST_P(LayoutRejects, ThrowsMbdError) {
  EXPECT_THROW(build(GetParam()), Error);
}

INSTANTIATE_TEST_SUITE_P(Matrix, LayoutAccepts,
                         ::testing::ValuesIn(accepted()), case_name);
INSTANTIATE_TEST_SUITE_P(Matrix, LayoutRejects,
                         ::testing::ValuesIn(rejected()), case_name);

}  // namespace
}  // namespace mbd::parallel
