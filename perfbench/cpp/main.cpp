// The perfbench program: benchmark of the SWDUAL repository.
//
//   perfbench generate --workload W --seed N --data-dir D
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --data-dir D --out-dir O
//   perfbench smoke --data-dir D --out-dir O
//
// `generate` writes a workload's inputs (SWDB database and query files) for
// a seed; `run` measures them and prints, as the last line of stdout, one
// JSON object with the keys correct, attempted, failed and metrics. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. `smoke` runs the checker's self-test and every workload,
// untraced and traced, on tiny inputs with a handful of requests.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "checker.h"
#include "common.h"
#include "seq/swdb.h"

namespace {

using perfbench::Options;
using perfbench::RunResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"search_gcups", "GCUPS"}, {"virtual_makespan_s", "s"},
    {"throughput_qps", "1/s"}, {"latency_p50_ms", "ms"},
    {"latency_p95_ms", "ms"},
};

// A layer metric the workload's path does not run reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"seq.open_ms", "ms"},
    {"align.kernel.gcups", "GCUPS"},
    {"align.kernel.cells", "count"},
    {"align.filter.screen_ms", "ms"},
    {"align.filter.rescan_ms", "ms"},
    {"align.filter.candidates", "count"},
    {"align.filter.band_uncertain", "count"},
    {"align.filter.rescan_yield", "share"},
    {"align.annotate.ms", "ms"},
    {"align.annotate.calibrate_ms", "ms"},
    {"align.sharded.group_ms", "ms"},
    {"align.sharded.db_passes_per_query", "ratio"},
    {"align.sharded.imbalance", "ratio"},
    {"sched.plan_ms", "ms"},
    {"sched.makespan_over_bound", "ratio"},
    {"master.batch_ms", "ms"},
    {"master.worker_busy_share", "share"},
    {"master.gpu_task_share", "share"},
    {"master.virtual_idle_share", "share"},
    {"serve.queue_ms", "ms"},
    {"serve.hit_queue_ms", "ms"},
    {"serve.execute_ms", "ms"},
    {"serve.batch_size", "count"},
    {"serve.cache_hit_ratio", "share"},
    {"serve.collapse_ratio", "share"},
    {"serve.profile_hit_ratio", "share"},
    {"serve.queue_full_rejections", "count"},
    {"host.probe_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

constexpr const char* kWorkloads[] = {"paper-batch", "serve-cold-filtered",
                                      "serve-hot-mixed"};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench generate|run|smoke --workload W --seed N "
               "--seconds S --trace 0|1 --data-dir D --out-dir O\n");
  return 2;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !options.data_dir.empty();
}

void generate(const Options& options) {
  if (options.workload == "paper-batch") {
    perfbench::generate_paper_batch(options);
  } else if (options.workload == "serve-cold-filtered") {
    perfbench::generate_serve_cold(options);
  } else if (options.workload == "serve-hot-mixed") {
    perfbench::generate_serve_hot(options);
  } else {
    throw std::invalid_argument("unknown workload: " + options.workload);
  }
  std::vector<double> lengths;
  double total = 0.0;
  for (const swdual::seq::Sequence& query :
       perfbench::read_records(perfbench::queries_path(options))) {
    lengths.push_back(static_cast<double>(query.length()));
    total += lengths.back();
  }
  const swdual::seq::MappedSwdb db(perfbench::db_path(options));
  std::printf("inputs: %zu queries of %g-%g aa (median %g, total %g); "
              "database %zu records, %llu residues\n",
              lengths.size(), perfbench::quantile(lengths, 0),
              perfbench::quantile(lengths, 1), perfbench::median(lengths),
              total, db.size(),
              static_cast<unsigned long long>(db.total_residues()));
}

RunResult measure(const Options& options) {
  if (options.workload == "paper-batch") {
    return perfbench::run_paper_batch(options);
  }
  if (options.workload == "serve-cold-filtered") {
    return perfbench::run_serve_cold(options);
  }
  if (options.workload == "serve-hot-mixed") {
    return perfbench::run_serve_hot(options);
  }
  throw std::invalid_argument("unknown workload: " + options.workload);
}

/// Runs one workload and prints its report; returns the result line.
std::string run(const Options& options, RunResult* out) {
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.smoke ? " smoke" : "");
  std::printf("host: %s\n", perfbench::host_fingerprint().c_str());
  const double probe_before = perfbench::host_probe_ms();
  const std::string self_test = perfbench::check::self_test();
  std::printf("checker self-test: %s\n",
              self_test.empty() ? "ok" : self_test.c_str());
  RunResult result = measure(options);
  const double probe_after = perfbench::host_probe_ms();
  std::printf("host.probe_ms: before=%.3f after=%.3f\n", probe_before,
              probe_after);
  if (!self_test.empty()) result.correct = false;
  if (options.trace) {
    result.set("host.probe_ms", (probe_before + probe_after) / 2, "ms");
    for (const MetricSpec& spec : kPerLayer) {
      if (result.metrics.count(spec.name) == 0) result.set(spec.name, 0, spec.unit);
    }
    perfbench::write_trace_outputs(options, result);
    std::printf("trace: %s/%s-%llu.{layers,trace}.json\n",
                options.out_dir.c_str(), options.workload.c_str(),
                static_cast<unsigned long long>(options.seed));
  } else if (result.metrics.count("peak_rss_mb") == 0) {
    result.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  }
  std::printf("operations: attempted=%llu completed=%llu failed=%llu\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.completed),
              static_cast<unsigned long long>(result.failed));
  for (const std::string& problem : result.problems) {
    std::printf("check failed: %s\n", problem.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  bool first = true;
  char value[64];
  const std::span<const MetricSpec> specs =
      options.trace ? std::span<const MetricSpec>(kPerLayer)
                    : std::span<const MetricSpec>(kEndToEnd);
  for (const MetricSpec& spec : specs) {
    const auto found = result.metrics.find(spec.name);
    if (found == result.metrics.end()) continue;
    std::snprintf(value, sizeof value, "%.17g", found->second.first);
    std::printf("metric %s = %s %s\n", spec.name, value, spec.unit);
    json += std::string(first ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + value + ", \"unit\": \"" + spec.unit + "\"}";
    first = false;
  }
  json += "}}";
  *out = std::move(result);
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  Options options;
  if (!parse(argc, argv, options)) return usage();
  try {
    std::filesystem::create_directories(options.data_dir);
    if (!options.out_dir.empty()) {
      std::filesystem::create_directories(options.out_dir);
    }
    if (mode == "generate") {
      generate(options);
      return 0;
    }
    if (mode == "run") {
      RunResult result;
      const std::string json = run(options, &result);
      std::fflush(stdout);
      std::printf("%s\n", json.c_str());
      return 0;
    }
    if (mode == "smoke") {
      bool ok = true;
      for (const char* workload : kWorkloads) {
        for (const bool trace : {false, true}) {
          Options smoke = options;
          smoke.workload = workload;
          smoke.smoke = true;
          smoke.trace = trace;
          smoke.seconds = 0;
          generate(smoke);
          RunResult result;
          run(smoke, &result);
          std::filesystem::remove(perfbench::db_path(smoke));
          std::filesystem::remove(perfbench::queries_path(smoke));
          const bool passed = result.correct && result.failed == 0 &&
                              result.attempted > 0;
          std::printf("smoke %s trace=%d: %s\n\n", workload, trace ? 1 : 0,
                      passed ? "PASS" : "FAIL");
          ok = ok && passed;
        }
      }
      return ok ? 0 : 1;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  return usage();
}
