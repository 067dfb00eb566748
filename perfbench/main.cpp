// End-to-end benchmark of the trainers and the serving gateway.
//
//   perfbench --workload <train_conv|train_fc|serve_light|serve_heavy>
//             --seed <n> --seconds <s> --trace <0|1> [--plant <what>]
//
// Every workload runs at P = 4 through the public entry points and checks
// its own outputs. --trace 0 measures the end-to-end metrics with the
// profiler off; --trace 1 is a separate pass that turns the profiler on and
// reports the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. A failed
// check makes the exit status 1. README.md in this directory explains the
// workloads and metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "common.hpp"
#include "mbd/tensor/gemm_config.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The names BENCHMARK.json declares. Every workload reports every one of
// them; each workload's meaning of the shared names is in README.md.
constexpr MetricDef kEndToEnd[] = {
    {"throughput_per_s", "1/s"},
    {"latency_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"tensor.gemm_ms", "ms"},
    {"tensor.pack_ms", "ms"},
    {"tensor.im2col_ms", "ms"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"tensor.im2col_gbps", "GB/s"},
    {"nn.seq_fwd_ms", "ms"},
    {"nn.seq_bwd_ms", "ms"},
    {"comm.bytes_per_step.model", "B"},
    {"comm.bytes_per_step.batch", "B"},
    {"comm.bytes_per_step.integrated_15d", "B"},
    {"comm.bytes_per_step.pipeline", "B"},
    {"comm.bytes_per_step.domain", "B"},
    {"comm.bytes_per_step.hybrid", "B"},
    {"comm.bytes_per_step.mixed_grid", "B"},
    {"comm.msgs_per_step.model", "count"},
    {"comm.msgs_per_step.batch", "count"},
    {"comm.msgs_per_step.integrated_15d", "count"},
    {"comm.msgs_per_step.pipeline", "count"},
    {"comm.msgs_per_step.domain", "count"},
    {"comm.msgs_per_step.hybrid", "count"},
    {"comm.msgs_per_step.mixed_grid", "count"},
    {"comm.exposed_ms", "ms"},
    {"comm.allreduce_gbps", "GB/s"},
    {"comm.allgather_gbps", "GB/s"},
    {"comm.memcpy_gbps", "GB/s"},
    {"parallel.step_ms.model", "ms"},
    {"parallel.step_ms.batch", "ms"},
    {"parallel.step_ms.integrated_15d", "ms"},
    {"parallel.step_ms.pipeline", "ms"},
    {"parallel.step_ms.domain", "ms"},
    {"parallel.step_ms.hybrid", "ms"},
    {"parallel.step_ms.mixed_grid", "ms"},
    {"parallel.fwd_self_ms", "ms"},
    {"parallel.bwd_self_ms", "ms"},
    {"parallel.hidden_frac", "ratio"},
    {"parallel.pipeline_idle_frac", "ratio"},
    {"parallel.checkpoint_ms", "ms"},
    {"serve.batch_mean", "count"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.forward_ms", "ms"},
    {"serve.calibrate_s", "s"},
    {"serve.gen_late_p99_ms", "ms"},
    {"serve.slo_miss_ratio", "ratio"},
    {"obs.trace_overhead", "ratio"},
    {"obs.metrics_observe_ns", "ns"},
    {"costmodel.bytes_ratio", "ratio"},
};

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload <train_conv|train_fc|"
               "serve_light|serve_heavy> --seed <n> --seconds <s> "
               "--trace <0|1> [--plant <loss|bytes|logits>]\n",
               argv0, why.c_str(), argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage(argv[0], "missing value for " + std::string(arg));
    const std::string val = argv[++i];
    if (arg == "--workload") {
      o.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = val == "1";
    } else if (arg == "--plant") {
      o.plant = val;
    } else {
      usage(argv[0], "unknown argument " + std::string(arg));
    }
  }
  if (!have_workload) usage(argv[0], "--workload is required");
  if (!(o.seconds > 0.0)) usage(argv[0], "--seconds must be positive");
  return o;
}

void print_result(const Report& rep, bool trace) {
  for (const std::string& line : rep.info) std::printf("# %s\n", line.c_str());
  std::string json = "{\"correct\": ";
  json += rep.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m, double v) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    std::printf("%-36s %16.6g %s\n", m.name, v, m.unit);
    json += first ? "" : ", ";
    json += std::string("\"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  };
  if (trace) {
    // Layers a workload does not exercise read 0.
    for (const MetricDef& m : kPerLayer) {
      const auto it = rep.metrics.find(m.name);
      emit(m, it == rep.metrics.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m, rep.metrics.at(m.name));
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

/// Machine-wide steal time so far, in seconds; 0 where it is not reported.
double host_steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) /
                      static_cast<double>(sysconf(_SC_CLK_TCK))
                : 0.0;
}

}  // namespace

StealWindow::StealWindow() : t0_(Clock::now()), steal0_s_(host_steal_s()) {}

bool StealWindow::clean() const {
  const double cpu_s = seconds_since(t0_) *
                       std::max(1u, std::thread::hardware_concurrency());
  return host_steal_s() - steal0_s_ <= 0.02 * cpu_s;
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  return ok;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const bool training = opt.workload == "train_conv" || opt.workload == "train_fc";
  const bool serving =
      opt.workload == "serve_light" || opt.workload == "serve_heavy";
  if (!training && !serving) usage(argv[0], "unknown workload " + opt.workload);

  Report rep;
  // Runs from different builds or hosts must never be compared blindly.
  const auto& g = mbd::tensor::gemm_config();
  const char* omp = std::getenv("OMP_NUM_THREADS");
  char host[256];
  std::snprintf(host, sizeof host,
                "host: nproc=%u OMP_NUM_THREADS=%s gemm=%s mr=%zu nr=%zu "
                "mc=%zu kc=%zu nc=%zu",
                std::thread::hardware_concurrency(), omp ? omp : "unset",
                g.kernel, g.mr, g.nr, g.mc, g.kc, g.nc);
  rep.note(host);
  rep.note("workload=" + opt.workload + " seed=" + std::to_string(opt.seed) +
           " trace=" + (opt.trace ? "1" : "0"));

  try {
    if (training) {
      run_training(opt, rep);
    } else {
      run_serving(opt, rep);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  rep.metrics["peak_rss_mb"] = peak_rss_mb();
  print_result(rep, opt.trace);
  return rep.failed == 0 ? 0 : 1;
}
