// perfbench: end-to-end benchmark of the mlfs feature store.
//
//   perfbench --workload serve|train|ingest --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE]
//
// Generates the workload's inputs from the seed, runs it through the public
// API for about S seconds, checks the outputs against an oracle computed
// from the generated inputs, and prints one JSON result as the last line of
// standard output: the end-to-end metrics with --trace 0, the per-layer
// metrics (from spans recorded around every call the benchmark makes into
// a layer) with --trace 1. Exits non-zero without a result on a usage or
// set-up error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every run prints all of these; a workload that does not reach a layer
// reports 0 for its metrics.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"rss_mb", "MiB"},
    {"throughput_per_s", "1/s"}, {"latency_p50_us", "us"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.ingest_ms", "ms"},
    {"core.setup_ingest_s", "s"},
    {"registry.setup_refresh_s", "s"},
    {"registry.refresh_ms", "ms"},
    {"embedding.register_s", "s"},
    {"serving.get_batch_us", "us"},
    {"serving.self_us", "us"},
    {"serving.get_tail_us", "us"},
    {"serving.spine_build_ms", "ms"},
    {"serving.join_ms", "ms"},
    {"serving.join_1t_ms", "ms"},
    {"serving.join_assembly_ms", "ms"},
    {"serving.join_speedup", "x"},
    {"serving.join_missing_frac", "frac"},
    {"serving.degraded_frac", "frac"},
    {"storage.online_multiget_us", "us"},
    {"storage.online_hit_frac", "frac"},
    {"storage.online_bytes_per_cell", "B/cell"},
    {"storage.online_puts_per_event", "count"},
    {"storage.maintenance_ms", "ms"},
    {"storage.asof_batch_ms", "ms"},
    {"storage.eval_latest_ms", "ms"},
    {"storage.offline_bytes_per_row", "B/row"},
    {"storage.sealed_segments", "count"},
    {"storage.spilled_segments", "count"},
    {"expr.eval_batch_us", "us"},
    {"embedding.multiget_us", "us"},
    {"embedding.hot_hit_frac", "frac"},
    {"embedding.promotions_per_request", "count"},
    {"streaming.ingest_batch_ms", "ms"},
    {"streaming.rows_per_event", "count"},
    {"io.spilled_mb", "MiB"},
    {"core.self_share", "frac"},
    {"serving.self_share", "frac"},
    {"storage.self_share", "frac"},
    {"expr.self_share", "frac"},
    {"registry.self_share", "frac"},
    {"embedding.self_share", "frac"},
    {"streaming.self_share", "frac"},
    {"trace.overhead_frac", "frac"},
    {"harness.generator_late_p99_us", "us"},
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve|train|ingest "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--trace-out FILE]\n",
               msg);
  return 64;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, work_dir = ".bench_build/perfbench_work", trace_out;
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = std::strcmp(value, "0") == 0 || options.trace;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || options.seconds < 1) {
    return Usage("--seed, --seconds (>= 1) and --trace 0|1 are required");
  }
  Result (*run)(const RunOptions&, Tracer&) = nullptr;
  if (workload == "serve") run = RunServe;
  if (workload == "train") run = RunTrain;
  if (workload == "ingest") run = RunIngest;
  if (run == nullptr) return Usage(("unknown workload '" + workload + "'").c_str());

  // A private scratch directory per run, removed at exit.
  std::error_code ec;
  options.work_dir = work_dir + "/" + workload + "-" +
                     std::to_string(options.seed) + "-" +
                     std::to_string(NowNs());
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage(("cannot create " + options.work_dir).c_str());

  Tracer tracer(options.trace);
  Result result = run(options, tracer);
  std::filesystem::remove_all(options.work_dir, ec);

  if (options.trace && !trace_out.empty() && !tracer.WriteJsonLines(trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  // Keep exactly the metric set of the selected mode.
  Result out = result;
  out.metrics.clear();
  if (options.trace) {
    for (const MetricSpec& m : kPerLayer) {
      auto it = result.metrics.find(m.name);
      out.Set(m.name, it == result.metrics.end() ? 0.0 : it->second.value,
              m.unit);
    }
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      auto it = result.metrics.find(m.name);
      if (it == result.metrics.end() || !(it->second.value > 0)) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                     m.name);
        return 1;
      }
      out.Set(m.name, it->second.value, m.unit);
    }
  }
  std::printf("%s\n", out.ToJson().c_str());
  return 0;
}
