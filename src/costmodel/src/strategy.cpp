#include "mbd/costmodel/strategy.hpp"

#include <algorithm>
#include <cmath>

#include "mbd/support/check.hpp"

namespace mbd::costmodel {

using nn::LayerKind;
using nn::LayerSpec;

namespace {

void check_weighted(const std::vector<LayerSpec>& layers) {
  for (const auto& l : layers)
    MBD_CHECK_MSG(l.has_weights(),
                  "cost models take weighted layers only; '"
                      << l.name << "' is a pool layer (use weighted_layers())");
}

/// Eq. 9 halo terms for one conv layer at local batch b_loc: forward halo on
/// the input rows (⌊kh/2⌋ of them, X_W·X_C words each) plus backward halo on
/// the output (⌊kw/2⌋ columns of Y_W·Y_C words). 1×1 convolutions cost
/// nothing, as the paper highlights.
CostBreakdown conv_halo(const MachineModel& m, const LayerSpec& l,
                        double b_loc) {
  MBD_CHECK(l.kind == LayerKind::Conv);
  const auto& g = l.conv;
  CostBreakdown c;
  const std::size_t half_kh = g.kernel_h / 2;
  const std::size_t half_kw = g.kernel_w / 2;
  if (half_kh > 0) {
    c += halo_cost(m, b_loc * static_cast<double>(g.in_w * g.in_c * half_kh));
  }
  if (half_kw > 0) {
    c += halo_cost(
        m, b_loc * static_cast<double>(g.out_w() * g.out_c * half_kw));
  }
  return c;
}

}  // namespace

CostBreakdown StrategyCost::ag_forward() const {
  CostBreakdown c;
  for (const auto& l : layers) c += l.ag_forward;
  return c;
}
CostBreakdown StrategyCost::ar_dx() const {
  CostBreakdown c;
  for (const auto& l : layers) c += l.ar_dx;
  return c;
}
CostBreakdown StrategyCost::ar_dw() const {
  CostBreakdown c;
  for (const auto& l : layers) c += l.ar_dw;
  return c;
}
CostBreakdown StrategyCost::halo() const {
  CostBreakdown c;
  for (const auto& l : layers) c += l.halo;
  return c;
}
double StrategyCost::comm() const {
  return (ag_forward() + ar_dx() + ar_dw() + halo()).total();
}

double StrategyCost::total_overlapped(double overlappable_fraction) const {
  const double c = comm();
  const double overlappable = overlappable_fraction * c;
  const double window = overlappable_fraction * compute;
  return compute + c - std::min(overlappable, window);
}

StrategyCost model_parallel_cost(const std::vector<LayerSpec>& layers,
                                 std::size_t batch, std::size_t p,
                                 const MachineModel& m, SimOptions opts) {
  // Eq. 3 is the Pc = 1 slice of Eq. 8.
  return integrated_cost(layers, batch, /*pr=*/p, /*pc=*/1, m,
                         GridMode::Uniform, opts);
}

StrategyCost batch_parallel_cost(const std::vector<LayerSpec>& layers,
                                 std::size_t batch, std::size_t p,
                                 const MachineModel& m, SimOptions opts) {
  // Eq. 4 is the Pr = 1 slice of Eq. 8.
  return integrated_cost(layers, batch, /*pr=*/1, /*pc=*/p, m,
                         GridMode::Uniform, opts);
}

StrategyCost domain_parallel_cost(const std::vector<LayerSpec>& layers,
                                  std::size_t batch, std::size_t p,
                                  const MachineModel& m, SimOptions opts) {
  check_weighted(layers);
  MBD_CHECK_GT(p, 0u);
  StrategyCost out;
  const double b = static_cast<double>(batch);
  for (const auto& l : layers) {
    LayerCost lc;
    lc.name = l.name;
    // Eq. 7: halo exchanges per conv layer; every process holds the full
    // model, so the gradient all-reduce runs over all P on the whole |W_i|.
    if (l.kind == LayerKind::Conv) {
      lc.halo = conv_halo(m, l, b);
    } else {
      // FC layer under domain decomposition: the "halo" is the entire input
      // activation (paper §2.4) — an all-gather of B·d_in.
      lc.halo = allgather_cost(m, p, b * static_cast<double>(l.d_in()),
                               opts.latency);
    }
    lc.ar_dw =
        allreduce_cost(m, p, static_cast<double>(l.weight_count()), opts.latency);
    out.layers.push_back(lc);
  }
  // Each process computes 1/P of every sample's work at full-model width.
  out.compute = m.compute.iteration_seconds(b, 1.0 / static_cast<double>(p));
  return out;
}

StrategyCost integrated_cost(const std::vector<LayerSpec>& layers,
                             std::size_t batch, std::size_t pr, std::size_t pc,
                             const MachineModel& m, GridMode mode,
                             SimOptions opts) {
  check_weighted(layers);
  MBD_CHECK_GT(pr, 0u);
  MBD_CHECK_GT(pc, 0u);
  StrategyCost out;
  const double b_loc = static_cast<double>(batch) / static_cast<double>(pc);
  const std::size_t p = pr * pc;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerSpec& l = layers[i];
    const bool model_here =
        mode == GridMode::Uniform || l.kind == LayerKind::FullyConnected;
    LayerCost lc;
    lc.name = l.name;
    if (model_here) {
      // Eq. 8: all-gather of Y_i over the Pr group; all-reduce of ∆X over
      // Pr (all layers but the first); all-reduce of ∆W over Pc on a
      // 1/Pr slice of the weights.
      lc.ag_forward = allgather_cost(
          m, pr, b_loc * static_cast<double>(l.d_out()), opts.latency);
      if (i > 0) {
        lc.ar_dx = allreduce_cost(
            m, pr, b_loc * static_cast<double>(l.d_in()), opts.latency);
      }
      lc.ar_dw = allreduce_cost(
          m, pc,
          static_cast<double>(l.weight_count()) / static_cast<double>(pr),
          opts.latency);
    } else {
      // BatchParallelConv (Fig. 7): conv layers run pure batch parallel on
      // all P processes — full weights, ∆W all-reduce over P.
      lc.ar_dw = allreduce_cost(
          m, p, static_cast<double>(l.weight_count()), opts.latency);
    }
    out.layers.push_back(lc);
  }
  out.compute = m.compute.iteration_seconds(b_loc, 1.0 / static_cast<double>(pr));
  return out;
}

StrategyCost full_integrated_cost(const std::vector<LayerSpec>& layers,
                                  const std::vector<LayerRole>& roles,
                                  std::size_t batch, std::size_t pr,
                                  std::size_t pc, const MachineModel& m,
                                  SimOptions opts) {
  check_weighted(layers);
  MBD_CHECK_EQ(roles.size(), layers.size());
  MBD_CHECK_GT(pr, 0u);
  MBD_CHECK_GT(pc, 0u);
  const std::size_t p = pr * pc;
  const double b_loc = static_cast<double>(batch) / static_cast<double>(pc);
  StrategyCost out;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerSpec& l = layers[i];
    LayerCost lc;
    lc.name = l.name;
    if (roles[i] == LayerRole::Model) {
      lc.ag_forward = allgather_cost(
          m, pr, b_loc * static_cast<double>(l.d_out()), opts.latency);
      if (i > 0) {
        lc.ar_dx = allreduce_cost(
            m, pr, b_loc * static_cast<double>(l.d_in()), opts.latency);
      }
      lc.ar_dw = allreduce_cost(
          m, pc,
          static_cast<double>(l.weight_count()) / static_cast<double>(pr),
          opts.latency);
    } else {
      MBD_CHECK_MSG(roles[i] == LayerRole::Domain,
                    "Eq. 9 prices Model and Domain layers only; '"
                        << l.name << "' has another role");
      MBD_CHECK_MSG(l.kind == LayerKind::Conv,
                    "Domain role requires a conv layer; '" << l.name
                                                           << "' is not one");
      // Eq. 9 LD terms: halo at local batch B/Pc; full-weight all-reduce
      // over all P processes.
      lc.halo = conv_halo(m, l, b_loc);
      lc.ar_dw = allreduce_cost(
          m, p, static_cast<double>(l.weight_count()), opts.latency);
    }
    out.layers.push_back(lc);
  }
  out.compute = m.compute.iteration_seconds(b_loc, 1.0 / static_cast<double>(pr));
  return out;
}

std::vector<LayerRole> choose_roles(const std::vector<LayerSpec>& layers,
                                    std::size_t batch, std::size_t pr,
                                    std::size_t pc, const MachineModel& m,
                                    SimOptions opts) {
  check_weighted(layers);
  std::vector<LayerRole> roles(layers.size(), LayerRole::Model);
  if (pr <= 1) return roles;  // no Pr dimension — nothing to decide
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].kind != LayerKind::Conv) continue;
    // Compare the layer's Pr-dimension communication under each role.
    std::vector<LayerSpec> one{layers[i]};
    const auto as_model = full_integrated_cost(one, {LayerRole::Model}, batch,
                                               pr, pc, m, opts);
    const auto as_domain = full_integrated_cost(one, {LayerRole::Domain},
                                                batch, pr, pc, m, opts);
    if (as_domain.comm() < as_model.comm()) roles[i] = LayerRole::Domain;
  }
  return roles;
}

double batch_over_model_volume_ratio(const nn::LayerSpec& conv,
                                     std::size_t batch) {
  MBD_CHECK(conv.kind == LayerKind::Conv);
  return 2.0 * static_cast<double>(conv.weight_count()) /
         (3.0 * static_cast<double>(batch) * static_cast<double>(conv.d_out()));
}

std::size_t model_favorable_batch_limit(const nn::LayerSpec& conv) {
  MBD_CHECK(conv.kind == LayerKind::Conv);
  const auto& g = conv.conv;
  const double limit = 2.0 * static_cast<double>(g.kernel_h * g.kernel_w *
                                                 g.in_c) /
                       (3.0 * static_cast<double>(g.out_h() * g.out_w()));
  return static_cast<std::size_t>(std::floor(limit));
}

CostBreakdown redistribution_cost(const MachineModel& m, std::size_t p,
                                  std::size_t batch, std::size_t d) {
  return allgather_cost(m, p,
                        static_cast<double>(batch) * static_cast<double>(d));
}

std::size_t iterations_per_epoch(std::size_t images, std::size_t batch) {
  MBD_CHECK_GT(batch, 0u);
  return (images + batch - 1) / batch;
}

double epoch_seconds(const StrategyCost& cost, std::size_t images,
                     std::size_t batch, bool overlap) {
  const double iter = overlap ? cost.total_overlapped() : cost.total();
  return iter * static_cast<double>(iterations_per_epoch(images, batch));
}

}  // namespace mbd::costmodel
