#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "align/backend.h"
#include "seq/dbgen.h"
#include "seq/swdb.h"
#include "util/rng.h"

#ifndef PERFBENCH_BUILD_INFO
#define PERFBENCH_BUILD_INFO "unknown"
#endif

namespace perfbench {

namespace {
volatile std::uint64_t probe_sink = 0;  // keeps the probe loop alive
}  // namespace

void RunResult::fail(const std::string& reason) {
  ++failed;
  if (problems.size() < 8) problems.push_back(reason);
}

void RunResult::reject(const std::string& reason) {
  correct = false;
  fail(reason);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double host_probe_ms() {
  // xorshift64 chain: no memory traffic, no vectorization, a fixed number
  // of dependent integer operations.
  const double start = now_seconds();
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 10'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x >> 60;
  }
  probe_sink = acc;
  return (now_seconds() - start) * 1e3;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string host_fingerprint() {
  using swdual::align::Backend;
  using swdual::align::KernelKind;
  std::string governor = "unreadable";
  std::ifstream in("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  if (in) std::getline(in, governor);
  std::ostringstream out;
  out << "nproc=" << std::thread::hardware_concurrency() << " backend="
      << swdual::align::backend_name(
             swdual::align::resolve_backend(Backend::kAuto,
                                            KernelKind::kInterSeq))
      << " build=" << PERFBENCH_BUILD_INFO << " governor=" << governor;
  return out.str();
}

std::string db_path(const Options& options) {
  return options.data_dir + "/" + options.workload + "-" +
         std::to_string(options.seed) + (options.smoke ? "-smoke" : "") +
         "-db.swdb";
}

std::string queries_path(const Options& options) {
  return options.data_dir + "/" + options.workload + "-" +
         std::to_string(options.seed) + (options.smoke ? "-smoke" : "") +
         "-queries.swdb";
}

std::vector<swdual::seq::Sequence> make_queries(const std::string& prefix,
                                                std::size_t count,
                                                std::uint64_t seed) {
  // seq::make_query_set draws the paper's queries from UniProt records of
  // 100-5000 aa; a stratified pick of the same lengths keeps their mix
  // (median about 300 aa, a tail past 1000 aa) without a seed-dependent
  // total. 1/100 of UniProt gives about 5300 records in the span.
  constexpr std::size_t kMin = 100, kMax = 5000, kReferenceScale = 100;
  constexpr std::uint64_t kLengthOrderSeed = 42;
  std::vector<std::size_t> span;
  for (const swdual::seq::Sequence& record : swdual::seq::generate_database(
           swdual::seq::table3_profile("uniprot", kReferenceScale))) {
    if (record.length() >= kMin && record.length() <= kMax) {
      span.push_back(record.length());
    }
  }
  std::sort(span.begin(), span.end());
  std::vector<std::size_t> lengths;
  for (std::size_t i = 0; i < count; ++i) {
    lengths.push_back(span[(2 * i + 1) * span.size() / (2 * count)]);
  }
  // A fixed order, so that every seed sends the same lengths in the same
  // order, and only the residues come from `seed`.
  swdual::Rng order(kLengthOrderSeed);
  for (std::size_t i = lengths.size(); i > 1; --i) {
    std::swap(lengths[i - 1], lengths[order.below(i)]);
  }
  swdual::Rng rng(seed);
  std::vector<swdual::seq::Sequence> queries;
  for (std::size_t i = 0; i < count; ++i) {
    queries.push_back(swdual::seq::random_protein(
        rng, prefix + std::to_string(i), lengths[i]));
  }
  return queries;
}

std::vector<swdual::seq::Sequence> read_records(const std::string& path) {
  const swdual::seq::MappedSwdb file(path);
  std::vector<swdual::seq::Sequence> records;
  records.reserve(file.size());
  for (std::size_t i = 0; i < file.size(); ++i) {
    records.push_back(file.record(i));
  }
  return records;
}

double timed_probe(swdual::obs::Tracer* tracer, const std::string& name,
                   const std::function<void()>& body) {
  swdual::obs::Span span;
  if (tracer != nullptr) span = tracer->span(name, "probe", kProbeTrack);
  const double start = now_seconds();
  body();
  const double ms = (now_seconds() - start) * 1e3;
  span.finish();
  return ms;
}

void write_trace_outputs(const Options& options, const RunResult& result) {
  const std::string stem = options.out_dir + "/" + options.workload + "-" +
                           std::to_string(options.seed);
  {
    std::ofstream layers(stem + ".layers.json");
    layers << "{\n  \"workload\": \"" << options.workload
           << "\",\n  \"seed\": " << options.seed << ",\n  \"metrics\": {";
    bool first = true;
    char value[64];
    for (const auto& [name, metric] : result.metrics) {
      std::snprintf(value, sizeof value, "%.9g", metric.first);
      layers << (first ? "\n" : ",\n") << "    \"" << name
             << "\": {\"value\": " << value << ", \"unit\": \""
             << metric.second << "\"}";
      first = false;
    }
    layers << "\n  }\n}\n";
  }
  swdual::obs::ChromeTraceOptions chrome;
  chrome.track_names[swdual::obs::kMasterTrack] = "master/serve";
  chrome.track_names[kProbeTrack] = "benchmark layer probes";
  std::ofstream trace(stem + ".trace.json");
  swdual::obs::write_chrome_trace(trace, result.events, chrome);
}

MasterSpanSummary summarize_master_spans(
    const std::vector<swdual::obs::TraceEvent>& events, std::size_t workers,
    std::size_t gpu_workers) {
  using swdual::obs::Clock;
  using swdual::obs::TraceEvent;
  std::vector<const TraceEvent*> ordered;
  ordered.reserve(events.size());
  for (const TraceEvent& event : events) ordered.push_back(&event);
  std::sort(ordered.begin(), ordered.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              return a->seq < b->seq;
            });

  // One run_search = its "schedule" span start to its "merge" span end, on
  // the master track, recorded in that order by the calling thread.
  struct Window {
    double start = 0.0, end = 0.0;
    std::map<std::size_t, double> virtual_busy;  ///< track -> seconds
  };
  std::vector<Window> windows;
  double open_start = -1.0;
  for (const TraceEvent* event : ordered) {
    if (event->clock != Clock::kWall ||
        event->track != swdual::obs::kMasterTrack ||
        event->category != "master") {
      continue;
    }
    if (event->name == "schedule" && open_start < 0) open_start = event->start;
    if (event->name == "merge" && open_start >= 0) {
      windows.push_back({open_start, event->end, {}});
      open_start = -1.0;
    }
  }
  const auto window_of = [&windows](double t) -> Window* {
    for (Window& window : windows) {
      if (t >= window.start && t <= window.end) return &window;
    }
    return nullptr;
  };

  // A task span records its wall event and then its virtual event from the
  // same thread, so a virtual event belongs to the latest wall task event
  // of its recording thread.
  double busy = 0.0;
  std::size_t tasks = 0, gpu_tasks = 0;
  std::map<std::uint32_t, Window*> last_window_by_thread;
  for (const TraceEvent* event : ordered) {
    if (event->name != "task" || event->track == swdual::obs::kMasterTrack) {
      continue;
    }
    if (event->clock == Clock::kWall) {
      Window* window = window_of(event->start);
      last_window_by_thread[event->thread] = window;
      if (window == nullptr) continue;
      busy += event->duration();
      ++tasks;
      if (event->track - 1 < gpu_workers) ++gpu_tasks;
    } else if (Window* window = last_window_by_thread[event->thread]) {
      window->virtual_busy[event->track] += event->duration();
    }
  }

  MasterSpanSummary summary;
  std::vector<double> batch_ms;
  double wall = 0.0, idle_capacity = 0.0, capacity = 0.0;
  for (const Window& window : windows) {
    batch_ms.push_back((window.end - window.start) * 1e3);
    wall += window.end - window.start;
    double makespan = 0.0, busy_sum = 0.0;
    for (const auto& [track, seconds] : window.virtual_busy) {
      makespan = std::max(makespan, seconds);
      busy_sum += seconds;
    }
    capacity += makespan * static_cast<double>(workers);
    idle_capacity += makespan * static_cast<double>(workers) - busy_sum;
  }
  summary.batch_ms = median(batch_ms);
  summary.worker_busy_share =
      wall > 0 ? busy / (wall * static_cast<double>(workers)) : 0.0;
  summary.gpu_task_share =
      tasks > 0 ? static_cast<double>(gpu_tasks) / static_cast<double>(tasks)
                : 0.0;
  summary.virtual_idle_share = capacity > 0 ? idle_capacity / capacity : 0.0;
  return summary;
}

}  // namespace perfbench
