// Layouts as plans: named_plan gives the six collective trainers their
// grid and per-layer roles, and check_plan refuses every role sequence
// those six do not produce, naming the layer at fault.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mbd/costmodel/volumes.hpp"
#include "mbd/nn/models.hpp"
#include "mbd/support/check.hpp"

namespace mbd::costmodel {
namespace {

using R = LayerRole;

std::vector<nn::LayerSpec> conv_net() {
  return {nn::conv_spec("conv1", 2, 8, 8, 4, 3, 1, 1),
          nn::conv_spec("conv2", 4, 8, 8, 4, 3, 1, 1),
          nn::fc_spec("fc1", 4 * 8 * 8, 16), nn::fc_spec("fc2", 16, 4, false)};
}

std::string rejection(const ParallelPlan& plan,
                      const std::vector<nn::LayerSpec>& specs) {
  try {
    check_plan(plan, specs);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "check_plan accepted the plan";
  return {};
}

void expect_names(const std::string& error, const std::string& layer) {
  EXPECT_NE(error.find("layer '" + layer + "'"), std::string::npos)
      << "error does not name '" << layer << "': " << error;
}

TEST(Plans, NamedPlansHaveTheSixShapes) {
  const auto net = conv_net();
  const auto expect = [&](TrainerKind kind, int pr, int pc, bool split,
                          std::vector<LayerRole> roles) {
    const ParallelPlan plan = named_plan(kind, net, 2, 4);
    EXPECT_EQ(plan.pr, pr) << trainer_kind_name(kind);
    EXPECT_EQ(plan.pc, pc) << trainer_kind_name(kind);
    EXPECT_EQ(plan.split, split) << trainer_kind_name(kind);
    EXPECT_EQ(plan.roles, roles) << trainer_kind_name(kind);
  };
  expect(TrainerKind::BatchParallel, 1, 8, false,
         {R::Batch, R::Batch, R::Batch, R::Batch});
  expect(TrainerKind::ModelParallel, 8, 1, false,
         {R::Model, R::Model, R::Model, R::Model});
  expect(TrainerKind::Integrated15D, 2, 4, true,
         {R::Model, R::Model, R::Model, R::Model});
  expect(TrainerKind::DomainParallel, 8, 1, false,
         {R::Domain, R::Domain, R::Replicated, R::Replicated});
  expect(TrainerKind::Hybrid, 2, 4, true,
         {R::Domain, R::Domain, R::Model, R::Model});
  expect(TrainerKind::MixedGrid, 2, 4, true,
         {R::Batch, R::Batch, R::Model, R::Model});
  EXPECT_EQ(front_layers(named_plan(TrainerKind::Hybrid, net, 2, 4)), 2U);
  EXPECT_EQ(front_layers(named_plan(TrainerKind::ModelParallel, net, 2, 4)),
            0U);
}

TEST(Plans, TheSixNamedPlansPassTheCheck) {
  const auto mlp = nn::mlp_spec({24, 32, 10});
  const auto pooled = nn::small_cnn_spec(2, 8, 4);
  EXPECT_NO_THROW(
      check_plan(named_plan(TrainerKind::BatchParallel, pooled, 2, 2), pooled));
  EXPECT_NO_THROW(
      check_plan(named_plan(TrainerKind::ModelParallel, mlp, 2, 2), mlp));
  EXPECT_NO_THROW(
      check_plan(named_plan(TrainerKind::Integrated15D, mlp, 2, 2), mlp));
  EXPECT_NO_THROW(check_plan(
      named_plan(TrainerKind::DomainParallel, conv_net(), 2, 2), conv_net()));
  EXPECT_NO_THROW(check_plan(named_plan(TrainerKind::Hybrid, conv_net(), 2, 2),
                             conv_net()));
  EXPECT_NO_THROW(
      check_plan(named_plan(TrainerKind::MixedGrid, pooled, 2, 2), pooled));
}

TEST(Plans, ThePipelineIsNotAPlan) {
  EXPECT_THROW(
      named_plan(TrainerKind::Pipeline, nn::mlp_spec({8, 8, 4}), 2, 1),
      Error);
}

TEST(Plans, HybridAndMixedNeedAFrontStack) {
  // Without conv or pool layers both would be the 1.5D plan renamed.
  const auto mlp = nn::mlp_spec({24, 32, 10});
  for (const TrainerKind kind : {TrainerKind::Hybrid, TrainerKind::MixedGrid}) {
    try {
      (void)named_plan(kind, mlp, 2, 2);
      ADD_FAILURE() << trainer_kind_name(kind) << " accepted an MLP";
    } catch (const Error& e) {
      expect_names(e.what(), "fc1");
    }
  }
}

TEST(Plans, NamedPlanRejectionsNameTheLayer) {
  auto strided = conv_net();
  strided[1] = nn::conv_spec("strided", 4, 8, 8, 4, 3, 2, 1);
  strided[2] = nn::fc_spec("fc1", 4 * 4 * 4, 16);
  expect_names(
      rejection(named_plan(TrainerKind::Hybrid, strided, 2, 2), strided),
      "strided");
  expect_names(
      rejection(named_plan(TrainerKind::Integrated15D, conv_net(), 2, 2),
                conv_net()),
      "conv1");
  auto late_conv = conv_net();
  std::swap(late_conv[1], late_conv[2]);
  expect_names(rejection(named_plan(TrainerKind::DomainParallel, late_conv, 2,
                                    1),
                         late_conv),
               "conv2");
  auto wide = nn::small_cnn_spec(2, 8, 4);
  wide[3] = nn::fc_spec("fc1", 100, 32);
  expect_names(
      rejection(named_plan(TrainerKind::MixedGrid, wide, 2, 2), wide), "fc1");
  expect_names(rejection(named_plan(TrainerKind::DomainParallel, conv_net(),
                                    16, 1),
                         conv_net()),
               "conv1");  // 16 Pr ranks, 8 image rows
}

struct Foreign {
  std::string name;
  ParallelPlan plan;
  std::vector<nn::LayerSpec> specs;
  std::string layer;  ///< the layer the error must name
};

// Role sequences and grids that none of the six named plans produce.
std::vector<Foreign> foreign_plans() {
  const auto net = conv_net();
  const auto mlp = nn::mlp_spec({24, 32, 10});
  auto pooled_domain = conv_net();
  pooled_domain[1] = nn::pool_spec("pool", 4, 8, 8, 2, 2);
  pooled_domain[2] = nn::fc_spec("fc1", 4 * 4 * 4, 16);
  return {
      {"batch_after_model",
       {2, 2, true, {R::Model, R::Batch, R::Model}},
       nn::mlp_spec({24, 32, 16, 10}),
       "fc2"},
      {"domain_then_batch",
       {2, 2, true, {R::Domain, R::Batch, R::Model, R::Model}},
       net,
       "conv2"},
      {"replicated_without_domain",
       {4, 1, false, {R::Replicated, R::Replicated}},
       mlp,
       "fc1"},
      {"replicated_on_split_grid",
       {2, 2, true, {R::Domain, R::Domain, R::Replicated, R::Replicated}},
       net,
       "fc1"},
      {"model_after_unsplit_domain",
       {4, 1, false, {R::Domain, R::Domain, R::Model, R::Model}},
       net,
       "fc1"},
      {"model_after_unsplit_batch",
       {1, 4, false, {R::Batch, R::Batch, R::Model, R::Model}},
       net,
       "fc1"},
      {"split_all_batch",
       {2, 2, true, {R::Batch, R::Batch, R::Batch, R::Batch}},
       net,
       "fc2"},
      {"batch_on_pr_grid",
       {2, 2, false, {R::Batch, R::Batch, R::Batch, R::Batch}},
       net,
       "conv1"},
      {"unsplit_model_on_pc_grid",
       {2, 2, false, {R::Model, R::Model}},
       mlp,
       "fc1"},
      {"domain_on_pool",
       {2, 2, true, {R::Domain, R::Domain, R::Model, R::Model}},
       pooled_domain,
       "pool"},
      {"batch_fc_under_model", {2, 2, true, {R::Batch, R::Model}}, mlp, "fc1"},
      {"split_domain_without_tail",
       {2, 2, true, {R::Domain, R::Domain}},
       {net[0], net[1]},
       "conv2"},
  };
}

class ForeignPlan : public ::testing::TestWithParam<Foreign> {};

TEST_P(ForeignPlan, IsRejectedNamingTheLayer) {
  const Foreign& f = GetParam();
  expect_names(rejection(f.plan, f.specs), f.layer);
}

INSTANTIATE_TEST_SUITE_P(Plans, ForeignPlan,
                         ::testing::ValuesIn(foreign_plans()),
                         [](const ::testing::TestParamInfo<Foreign>& info) {
                           return info.param.name;
                         });

TEST(Plans, RolesMustCoverEveryLayer) {
  EXPECT_THROW(check_plan({4, 1, false, {R::Model}}, nn::mlp_spec({8, 8, 4})),
               Error);
  EXPECT_THROW(check_plan({4, 1, false, {}}, {}), Error);
}

}  // namespace
}  // namespace mbd::costmodel
