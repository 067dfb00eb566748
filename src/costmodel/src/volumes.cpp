#include "mbd/costmodel/volumes.hpp"

#include "mbd/comm/rounds.hpp"
#include "mbd/support/check.hpp"

namespace mbd::costmodel {
namespace {

constexpr std::uint64_t kWordBytes = sizeof(float);

// Same block convention as Comm::block_lo / parallel::block_range.
std::uint64_t block_size(std::size_t n, int p, int index) {
  const auto lo = (n * static_cast<std::size_t>(index)) /
                  static_cast<std::size_t>(p);
  const auto hi = (n * static_cast<std::size_t>(index + 1)) /
                  static_cast<std::size_t>(p);
  return hi - lo;
}

// Words in each of the p canonical blocks of `rows` rows of `unit` words.
std::vector<std::uint64_t> block_words(std::size_t rows, int p,
                                       std::uint64_t unit = 1) {
  std::vector<std::uint64_t> words(static_cast<std::size_t>(p));
  for (int b = 0; b < p; ++b)
    words[static_cast<std::size_t>(b)] = block_size(rows, p, b) * unit;
  return words;
}

// Bytes a rank sends all-gathering `rows` rows of `unit` words each, cut
// into p canonical row blocks: FC outputs (d_out rows of b_loc batch
// columns) and conv output slabs (img_h rows of n_loc·c·w words). Bruck when
// p divides `rows` (FcStage's and gather_slabs' dispatch), the ring
// all-gatherv otherwise.
std::uint64_t row_allgather_bytes(std::size_t rows, int p, std::uint64_t unit,
                                  int group_rank) {
  const auto algo = rows % static_cast<std::size_t>(p) == 0
                        ? comm::AllGatherAlgo::Bruck
                        : comm::AllGatherAlgo::Ring;
  return comm::send_words(comm::allgather_rounds(algo, p, group_rank),
                          block_words(rows, p, unit)) *
         kWordBytes;
}

std::uint64_t ring_allreduce_bytes(int p, std::size_t n, int rank) {
  return comm::send_words(
             comm::allreduce_rounds(comm::AllReduceAlgo::Ring, p, rank),
             block_words(n, p)) *
         kWordBytes;
}

// Bytes a rank sends halo-exchanging one conv layer (forward + backward):
// interior ranks talk to both neighbours, edge ranks to one.
std::uint64_t halo_bytes(int p, int rank, std::size_t n_loc, std::size_t in_c,
                         std::size_t halo, std::size_t in_w) {
  if (halo == 0 || p <= 1) return 0;
  const std::uint64_t neighbours =
      static_cast<std::uint64_t>(rank > 0) +
      static_cast<std::uint64_t>(rank < p - 1);
  return 2 * neighbours * n_loc * in_c * halo * in_w * kWordBytes;
}

RankVolume pipeline_volume(const std::vector<nn::LayerSpec>& specs,
                           std::size_t batch, int p, int rank) {
  const std::size_t num_layers = specs.size();
  MBD_CHECK_LE(static_cast<std::size_t>(p), num_layers);
  for (const auto& s : specs) MBD_CHECK(s.kind == nn::LayerKind::FullyConnected);
  // Output width of rank k's last owned layer under the canonical block
  // partition of the layer chain — the activation/gradient boundary between
  // ranks k and k+1.
  const auto boundary = [&](int k) {
    const auto hi = (num_layers * static_cast<std::size_t>(k + 1)) /
                    static_cast<std::size_t>(p);
    return specs[hi - 1].fc_out;
  };
  RankVolume v;
  // Forward activations to rank+1 and backward gradients to rank−1, one
  // message per microbatch; the microbatch column blocks of B sum to B, so
  // the per-iteration volume is microbatch-count-independent.
  if (rank < p - 1) v.p2p_bytes += boundary(rank) * batch * kWordBytes;
  if (rank > 0) v.p2p_bytes += boundary(rank - 1) * batch * kWordBytes;
  return v;
}

const char* role_name(LayerRole r) {
  switch (r) {
    case LayerRole::Model: return "Model";
    case LayerRole::Domain: return "Domain";
    case LayerRole::Batch: return "Batch";
    case LayerRole::Replicated: return "Replicated";
  }
  return "?";
}

bool same_padded_conv(const nn::LayerSpec& s) {
  const tensor::ConvGeom& g = s.conv;
  return s.kind == nn::LayerKind::Conv && g.stride == 1 &&
         g.kernel_h % 2 == 1 && g.kernel_h == g.kernel_w &&
         g.pad == g.kernel_h / 2;
}

// The fold: bytes rank `rank` sends per iteration under a checked plan.
RankVolume plan_volume(const ParallelPlan& plan,
                       const std::vector<nn::LayerSpec>& specs,
                       std::size_t batch, int rank) {
  check_plan(plan, specs);
  const int pr = plan.pr;
  const int pc = plan.pc;
  const int p = pr * pc;
  const int row = rank / pc;
  const int col = rank % pc;
  const std::size_t b_loc = block_size(batch, pc, col);
  RankVolume v;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const nn::LayerSpec& s = specs[i];
    switch (plan.roles[i]) {
      case LayerRole::Batch:
        if (s.has_weights())
          v.allreduce_bytes += ring_allreduce_bytes(p, s.weight_count(), rank);
        break;
      case LayerRole::Domain: {
        const tensor::ConvGeom& g = s.conv;
        v.p2p_bytes +=
            halo_bytes(pr, row, b_loc, g.in_c, g.kernel_h / 2, g.in_w);
        v.allreduce_bytes += ring_allreduce_bytes(p, s.weight_count(), rank);
        break;
      }
      case LayerRole::Model:
        // Y all-gather and ∆X all-reduce over Pr (the data layer needs no
        // ∆X), ∆W all-reduce of the owned rows over Pc.
        v.allgather_bytes += row_allgather_bytes(s.fc_out, pr, b_loc, row);
        if (i > 0)
          v.allreduce_bytes += ring_allreduce_bytes(pr, s.fc_in * b_loc, row);
        v.allreduce_bytes += ring_allreduce_bytes(
            pc, block_size(s.fc_out, pr, row) * s.fc_in, col);
        break;
      case LayerRole::Replicated:
        break;
    }
  }
  const std::size_t k = front_layers(plan);
  if (k == 0) return v;
  const nn::LayerSpec& last = specs[k - 1];
  if (plan.roles.front() == LayerRole::Domain) {
    // Leaving the conv stack: all-gather the output slabs over Pr ("the
    // halo is the whole input").
    const tensor::ConvGeom& g = last.conv;
    v.allgather_bytes +=
        row_allgather_bytes(g.in_h, pr, b_loc * g.out_c * g.out_w(), row);
  } else if (k < specs.size()) {
    // Eq. 6 redistribution: always the ring all-gatherv (RedistributeStage),
    // over the Pr group; member m contributes its Batch-stack column block
    // (index col·Pr + m of the canonical P-way batch partition).
    std::vector<std::uint64_t> blocks(static_cast<std::size_t>(pr));
    for (int m = 0; m < pr; ++m) {
      blocks[static_cast<std::size_t>(m)] =
          last.d_out() * block_size(batch, p, col * pr + m);
    }
    v.allgather_bytes +=
        comm::send_words(
            comm::allgather_rounds(comm::AllGatherAlgo::Ring, pr, row),
            blocks) *
        kWordBytes;
  }
  return v;
}

}  // namespace

std::string_view trainer_kind_name(TrainerKind k) {
  switch (k) {
    case TrainerKind::BatchParallel: return "batch";
    case TrainerKind::ModelParallel: return "model";
    case TrainerKind::Integrated15D: return "integrated";
    case TrainerKind::DomainParallel: return "domain";
    case TrainerKind::Hybrid: return "hybrid";
    case TrainerKind::MixedGrid: return "mixed";
    case TrainerKind::Pipeline: return "pipeline";
  }
  return "?";
}

ParallelPlan named_plan(TrainerKind kind,
                        const std::vector<nn::LayerSpec>& specs, int pr,
                        int pc) {
  const int p = pr * pc;
  // Conv and pool layers take the front role, FC layers the tail role.
  const auto roles = [&](LayerRole front, LayerRole tail) {
    std::vector<LayerRole> out;
    out.reserve(specs.size());
    for (const auto& s : specs)
      out.push_back(s.kind == nn::LayerKind::FullyConnected ? tail : front);
    return out;
  };
  switch (kind) {
    case TrainerKind::BatchParallel:
      return {1, p, false, roles(LayerRole::Batch, LayerRole::Batch)};
    case TrainerKind::ModelParallel:
      return {p, 1, false, roles(LayerRole::Model, LayerRole::Model)};
    case TrainerKind::Integrated15D:
      return {pr, pc, true, roles(LayerRole::Model, LayerRole::Model)};
    case TrainerKind::DomainParallel:
      return {p, 1, false, roles(LayerRole::Domain, LayerRole::Replicated)};
    case TrainerKind::Hybrid:
    case TrainerKind::MixedGrid:
      MBD_CHECK_MSG(specs.empty() ||
                        specs.front().kind != nn::LayerKind::FullyConnected,
                    "layer '" << specs.front().name << "': the "
                              << trainer_kind_name(kind)
                              << " plan starts with a conv or pool stack");
      return {pr, pc, true,
              roles(kind == TrainerKind::Hybrid ? LayerRole::Domain
                                                : LayerRole::Batch,
                    LayerRole::Model)};
    case TrainerKind::Pipeline:
      break;
  }
  MBD_CHECK_MSG(false, "the " << trainer_kind_name(kind)
                              << " trainer is not a grid plan");
  return {};
}

std::size_t front_layers(const ParallelPlan& plan) {
  const auto& roles = plan.roles;
  if (roles.empty() ||
      (roles.front() != LayerRole::Batch && roles.front() != LayerRole::Domain))
    return 0;
  std::size_t k = 0;
  while (k < roles.size() && roles[k] == roles.front()) ++k;
  return k;
}

void check_plan(const ParallelPlan& plan,
                const std::vector<nn::LayerSpec>& specs) {
  MBD_CHECK_GT(plan.pr, 0);
  MBD_CHECK_GT(plan.pc, 0);
  MBD_CHECK_MSG(!specs.empty(), "a plan needs at least one layer");
  MBD_CHECK_EQ(plan.roles.size(), specs.size());
  const auto& roles = plan.roles;
  const std::size_t n = specs.size();
  const std::size_t k = front_layers(plan);
  const LayerRole front = roles.front();
  const auto layer = [&](std::size_t i) {
    return "layer '" + specs[i].name + "' (" + role_name(roles[i]) + ")";
  };

  // The front run: a Batch stack, or a Domain conv stack on one image.
  std::size_t img_h = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const nn::LayerSpec& s = specs[i];
    if (front == LayerRole::Batch) {
      MBD_CHECK_MSG(k == n || s.kind != nn::LayerKind::FullyConnected,
                    layer(i) << ": a Batch stack under Model layers holds "
                                "conv and pool layers only");
      continue;
    }
    MBD_CHECK_MSG(same_padded_conv(s),
                  layer(i) << ": the Domain role needs a stride-1, odd "
                              "square kernel, same-padded conv");
    if (i == 0) img_h = s.conv.in_h;
    MBD_CHECK_MSG(s.conv.in_h == img_h,
                  layer(i) << ": input height " << s.conv.in_h
                           << " differs from the stack's " << img_h);
  }
  if (front == LayerRole::Domain)
    MBD_CHECK_MSG(static_cast<std::size_t>(plan.pr) <= img_h,
                  layer(0) << ": " << plan.pr << " Pr ranks but only "
                           << img_h << " image rows");

  // The tail: FC layers, Replicated after an unsplit Domain stack and
  // Model everywhere else.
  const LayerRole tail = front == LayerRole::Domain && !plan.split
                             ? LayerRole::Replicated
                             : LayerRole::Model;
  for (std::size_t i = k; i < n; ++i) {
    MBD_CHECK_MSG(roles[i] == tail, layer(i) << ": this plan's layers after "
                                                "its front stack are all "
                                             << role_name(tail));
    MBD_CHECK_MSG(specs[i].kind == nn::LayerKind::FullyConnected,
                  layer(i) << ": the " << role_name(tail)
                           << " role runs fully connected layers only");
  }
  if (k > 0 && k < n)
    MBD_CHECK_MSG(specs[k - 1].d_out() == specs[k].fc_in,
                  layer(k) << ": fc_in " << specs[k].fc_in << " but '"
                           << specs[k - 1].name << "' outputs "
                           << specs[k - 1].d_out());

  // The grid each shape runs on.
  if (plan.split) {
    MBD_CHECK_MSG(k < n, layer(n - 1) << ": a split plan ends in Model layers");
  } else if (front == LayerRole::Batch) {
    MBD_CHECK_MSG(k == n, layer(k) << ": Model layers after a Batch stack "
                                      "need a split grid");
    MBD_CHECK_MSG(plan.pr == 1,
                  layer(0) << ": an unsplit Batch plan runs on a 1 x P grid");
  } else {
    MBD_CHECK_MSG(plan.pc == 1, layer(0) << ": an unsplit "
                                         << role_name(front)
                                         << " plan runs on a P x 1 grid");
  }
}

RankVolume trainer_rank_volume(TrainerKind kind,
                               const std::vector<nn::LayerSpec>& specs,
                               std::size_t batch, int pr, int pc, int rank) {
  MBD_CHECK_GT(pr, 0);
  MBD_CHECK_GT(pc, 0);
  const int p = pr * pc;
  MBD_CHECK(rank >= 0 && rank < p);
  if (kind == TrainerKind::Pipeline)
    return pipeline_volume(specs, batch, p, rank);
  return plan_volume(named_plan(kind, specs, pr, pc), specs, batch, rank);
}

}  // namespace mbd::costmodel
