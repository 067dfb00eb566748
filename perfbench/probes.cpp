// Layer probes for the traced pass: each layer replayed or timed from
// outside at the sizes the workload itself uses.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "mbd/comm/world.hpp"
#include "mbd/obs/metrics.hpp"
#include "mbd/support/rng.hpp"
#include "mbd/tensor/gemm.hpp"
#include "mbd/tensor/im2col.hpp"
#include "mbd/tensor/tensor4.hpp"

namespace perfbench {
namespace {

using namespace mbd;

/// Median seconds per call of `fn` over at least `min_reps` calls and at
/// least `min_s` seconds, after one warm-up call.
template <typename Fn>
double time_call(Fn&& fn, int min_reps = 5, double min_s = 0.005) {
  fn();
  std::vector<double> t;
  const auto start = Clock::now();
  while (static_cast<int>(t.size()) < min_reps || seconds_since(start) < min_s) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

}  // namespace

double replay_gemm_inventory(Report& rep) {
  Rng rng(11);
  double flops = 0, seconds = 0;
  int shapes = 0;
  for (const obs::MetricValue& m : obs::Metrics::instance().snapshot()) {
    char variant[8] = {};
    std::size_t mm = 0, n = 0, k = 0;
    if (std::sscanf(m.name.c_str(), "gemm.shape.%7s m%zu n%zu k%zu", variant,
                    &mm, &n, &k) != 4)
      continue;
    const std::string v = variant;
    const bool ta = v == "tn", tb = v == "nt";
    const tensor::Matrix a = tensor::Matrix::random_normal(ta ? k : mm,
                                                           ta ? mm : k, rng, 1);
    const tensor::Matrix b = tensor::Matrix::random_normal(tb ? n : k,
                                                           tb ? k : n, rng, 1);
    tensor::Matrix c(mm, n);
    seconds += time_call([&] {
      if (ta) {
        tensor::gemm_tn(a, b, c);
      } else if (tb) {
        tensor::gemm_nt(a, b, c);
      } else {
        tensor::gemm_nn(a, b, c);
      }
    });
    flops += 2.0 * static_cast<double>(mm) * static_cast<double>(n) *
             static_cast<double>(k);
    ++shapes;
  }
  rep.note("gemm inventory: " + std::to_string(shapes) + " distinct shapes");
  return seconds > 0 ? flops / seconds / 1e9 : 0.0;
}

double replay_im2col(const std::vector<nn::LayerSpec>& specs) {
  Rng rng(12);
  double bytes = 0, seconds = 0;
  for (const nn::LayerSpec& s : specs) {
    if (s.kind != nn::LayerKind::Conv) continue;
    const tensor::ConvGeom& g = s.conv;
    const tensor::Tensor4 in =
        tensor::Tensor4::random_normal(1, g.in_c, g.in_h, g.in_w, rng, 1);
    tensor::Tensor4 grad(1, g.in_c, g.in_h, g.in_w);
    tensor::Matrix cols;
    seconds += time_call([&] { cols = tensor::im2col(in, 0, g); });
    seconds += time_call([&] { tensor::col2im_add(cols, grad, 0, g); });
    // im2col reads the image and writes the columns; col2im reads the
    // columns and reads and writes the image.
    const double image = 4.0 * static_cast<double>(in.size());
    const double columns = 4.0 * static_cast<double>(cols.size());
    bytes += (image + columns) + (columns + 2 * image);
  }
  return seconds > 0 ? bytes / seconds / 1e9 : 0.0;
}

void probe_collectives(const std::vector<std::size_t>& allreduce_floats,
                       const std::vector<std::size_t>& allgather_floats,
                       Report& rep) {
  const std::set<std::size_t> ar(allreduce_floats.begin(),
                                 allreduce_floats.end());
  const std::set<std::size_t> ag(allgather_floats.begin(),
                                 allgather_floats.end());
  constexpr int kRanks = 4, kReps = 9;
  double ar_bytes = 0, ar_s = 0, ag_bytes = 0, ag_s = 0;
  comm::World world(kRanks);
  world.run([&](comm::Comm& c) {
    // Every rank runs the same reps; rank 0's clock is the measurement.
    const auto timed = [&](auto&& op) {
      std::vector<double> t;
      for (int r = 0; r < kReps; ++r) {
        c.barrier();
        const auto t0 = Clock::now();
        op();
        t.push_back(seconds_since(t0));
      }
      return median(t);
    };
    for (const std::size_t n : ar) {
      std::vector<float> buf(n, 1.0f);
      const double s = timed([&] { c.allreduce(std::span<float>(buf)); });
      if (c.rank() == 0) {
        ar_bytes += 4.0 * static_cast<double>(n);
        ar_s += s;
      }
    }
    for (const std::size_t n : ag) {
      const std::vector<float> block(n, 1.0f);
      const double s = timed(
          [&] { (void)c.allgather(std::span<const float>(block)); });
      if (c.rank() == 0) {
        ag_bytes += 4.0 * static_cast<double>(n) * kRanks;
        ag_s += s;
      }
    }
  });

  double mc_bytes = 0, mc_s = 0;
  for (const std::size_t n : ar) {
    const std::vector<float> src(n, 1.0f);
    std::vector<float> dst(n);
    mc_s += time_call(
        [&] {
          std::memcpy(dst.data(), src.data(), 4 * n);
          // Keep the copy: nothing reads dst before it is freed.
          asm volatile("" : : "r"(dst.data()) : "memory");
        },
        kReps);
    mc_bytes += 4.0 * static_cast<double>(n);
  }
  rep.metrics["comm.allreduce_gbps"] = ar_s > 0 ? ar_bytes / ar_s / 1e9 : 0;
  rep.metrics["comm.allgather_gbps"] = ag_s > 0 ? ag_bytes / ag_s / 1e9 : 0;
  rep.metrics["comm.memcpy_gbps"] = mc_s > 0 ? mc_bytes / mc_s / 1e9 : 0;
}

double probe_metrics_observe() {
  constexpr int kCalls = 100000;
  auto& metrics = obs::Metrics::instance();
  std::vector<double> ns;
  for (int batch = 0; batch < 5; ++batch) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i)
      metrics.hist_observe("perfbench.observe", static_cast<double>(i));
    ns.push_back(seconds_since(t0) * 1e9 / kCalls);
  }
  return median(ns);
}

}  // namespace perfbench
