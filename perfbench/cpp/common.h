// Shared plumbing of the benchmark program: options, result accounting,
// order statistics, host fingerprint and the layer-probe tracer hooks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "seq/sequence.h"

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;          ///< tiny inputs, a handful of requests
  std::string data_dir;        ///< generated inputs (SWDB files)
  std::string out_dir;         ///< traced-run outputs (layer JSON, trace)
};

/// Outcome of one run: operation accounting plus named metrics.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> problems;  ///< first few check failures
  std::vector<swdual::obs::TraceEvent> events;  ///< traced runs only

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a failed operation (a throw or a refused submit) and keeps the
  /// first few reasons for the report.
  void fail(const std::string& reason);
  /// Records an answer that failed its check: a failed operation that also
  /// makes the run incorrect.
  void reject(const std::string& reason);
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Seconds on the steady clock since an arbitrary epoch.
double now_seconds();

/// Fixed single-threaded integer loop timed in milliseconds: the drift
/// reference printed before and after every run.
double host_probe_ms();

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// One-line host fingerprint: core count, resolved SIMD backend, build
/// type and options, CPU governor.
std::string host_fingerprint();

/// Requested dynamic-programming cells of one query against the whole
/// database (|q| * |D|), the numerator of the paper's GCUPS.
inline double requested_cells(const swdual::seq::Sequence& query,
                              std::uint64_t db_residues) {
  return static_cast<double>(query.length()) *
         static_cast<double>(db_residues);
}

/// Path helpers for the generated inputs of one workload and seed.
std::string db_path(const Options& options);
std::string queries_path(const Options& options);

/// `count` random protein queries for the serve workloads. Their lengths
/// follow the paper's query sets: UniProt record lengths inside the span
/// of seq::make_query_set's paper kind (100-5000 aa), taken from the
/// reference synthetic UniProt (Table III profile, fixed profile seed) at
/// the midpoints of `count` equal-count strata of its sorted lengths, in a
/// fixed shuffled order. The lengths and their order do not depend on
/// `seed`, so every seed asks for the same amount of work; the residues do.
std::vector<swdual::seq::Sequence> make_queries(const std::string& prefix,
                                                std::size_t count,
                                                std::uint64_t seed);

/// Reads every record of an SWDB file.
std::vector<swdual::seq::Sequence> read_records(const std::string& path);

/// Track on which the benchmark's own layer-probe spans are recorded.
inline constexpr std::size_t kProbeTrack = 1000;

/// Times `body` as a span named `name` on the probe track (when `tracer` is
/// set) and returns its wall duration in milliseconds.
double timed_probe(swdual::obs::Tracer* tracer, const std::string& name,
                   const std::function<void()>& body);

/// Writes the traced run's outputs: per-layer metrics as JSON and the
/// Chrome trace of every recorded event.
void write_trace_outputs(const Options& options, const RunResult& result);

/// Master-layer figures derived from the program's own worker task spans
/// (traced runs only): busy share of the worker threads over the wall time
/// of the run_search calls, share of tasks the GPU worker ran, and the
/// virtual idle share of the plan.
struct MasterSpanSummary {
  double batch_ms = 0.0;          ///< median run_search wall (ms)
  double worker_busy_share = 0.0;
  double gpu_task_share = 0.0;
  double virtual_idle_share = 0.0;
};
MasterSpanSummary summarize_master_spans(
    const std::vector<swdual::obs::TraceEvent>& events, std::size_t workers,
    std::size_t gpu_workers);

/// Per-workload entry points (one translation unit each).
void generate_paper_batch(const Options& options);
void generate_serve_cold(const Options& options);
void generate_serve_hot(const Options& options);
RunResult run_paper_batch(const Options& options);
RunResult run_serve_cold(const Options& options);
RunResult run_serve_hot(const Options& options);

}  // namespace perfbench
