// Closed-loop load generation and serve-layer accounting shared by the two
// serve workloads.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "serve/service.h"

namespace perfbench {

/// One request as its client saw it.
struct Outcome {
  std::size_t query = 0;     ///< index into the workload's query list
  double latency_s = 0.0;    ///< client-timed, submit to answer
  bool ok = false;           ///< answered (no throw, not refused)
  std::string error;         ///< why not, when !ok
  swdual::serve::QueryResponse response;
  std::size_t hit_count = 0;  ///< hits in the answer, kept after release

  /// Drops the answer's hits once checked, so a run's memory does not grow
  /// with the number of rounds it measures.
  void release_hits() {
    hit_count = response.hits.size();
    response.hits = {};
  }
};

/// The timed closed loop of one round.
struct ServeRound {
  double wall_s = 0.0;
  std::vector<Outcome> outcomes;
};

/// First of the tracks on which client c records its request spans.
inline constexpr std::size_t kClientTrack = 2000;

/// Runs one closed loop: client c submits plan[c] in order, each request
/// only after the previous one was answered. A submit refused because the
/// admission queue is full is retried; one still refused after the retries,
/// or refused for shutdown, or whose future throws, is a failed outcome.
/// Returns every outcome and sets `wall_s` to the loop's wall time. With a
/// tracer, each request is a "serve.request" span on its client's track.
std::vector<Outcome> drive_closed_loop(
    swdual::serve::QueryService& service,
    const std::vector<swdual::seq::Sequence>& queries,
    const std::vector<std::vector<std::size_t>>& plan, double* wall_s,
    swdual::obs::Tracer* tracer = nullptr);

/// Sums of QueryService::stats() over several service instances.
struct ServeTotals {
  std::uint64_t cache_hits = 0, cache_misses = 0, searches = 0;
  std::uint64_t profile_hits = 0, profile_misses = 0;
  std::uint64_t queue_full = 0, group_passes = 0;
  void add(const swdual::serve::QueryService::Stats& stats);
};

/// Sets the serve.* per-layer metrics from traced rounds, the services'
/// stats and the traced registry.
void set_serve_metrics(RunResult& result,
                       const std::vector<ServeRound>& rounds,
                       const ServeTotals& totals,
                       const swdual::obs::MetricsRegistry& registry);

/// Modeled makespan, on the paper's 2 CPU + 1 GPU platform under the SWDUAL
/// plan, of exact searches of `queries` against `db_residues` residues.
double modeled_makespan(const std::vector<swdual::seq::Sequence>& queries,
                        std::uint64_t db_residues);

/// Sets the end-to-end metrics of a serve workload from its untraced
/// rounds: each figure is computed per round and the median over rounds is
/// reported, so a few seconds of host contention move one round, not the
/// run.
void set_serve_end_to_end(RunResult& result,
                          const std::vector<ServeRound>& rounds,
                          const std::vector<double>& setup_s,
                          const std::vector<swdual::seq::Sequence>& queries,
                          std::uint64_t db_residues, double makespan_s);

/// Median round throughput of the untraced rounds over that of the traced
/// rounds, as a percentage slow-down.
double trace_overhead_pct(const std::vector<ServeRound>& untraced,
                          const std::vector<ServeRound>& traced);

}  // namespace perfbench
