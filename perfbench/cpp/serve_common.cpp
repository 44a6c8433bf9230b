#include "serve_common.h"

#include <chrono>
#include <cstdio>
#include <thread>

#include "master/master.h"
#include "sched/dual_approx.h"

namespace perfbench {

using namespace swdual;

namespace {

constexpr int kSubmitRetries = 2000;  ///< 1 ms apart

}  // namespace

std::vector<Outcome> drive_closed_loop(
    serve::QueryService& service, const std::vector<seq::Sequence>& queries,
    const std::vector<std::vector<std::size_t>>& plan, double* wall_s,
    obs::Tracer* tracer) {
  std::vector<std::vector<Outcome>> per_client(plan.size());
  const double start = now_seconds();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < plan.size(); ++c) {
    clients.emplace_back([&, c] {
      for (const std::size_t q : plan[c]) {
        Outcome outcome;
        outcome.query = q;
        obs::Span span;
        if (tracer != nullptr) {
          span = tracer->span("serve.request", "probe", kClientTrack + c);
          span.arg("query", static_cast<double>(q));
        }
        const double submitted = now_seconds();
        serve::Submission ticket = service.submit(queries[q]);
        for (int retry = 0;
             ticket.status == serve::SubmitStatus::kQueueFull &&
             retry < kSubmitRetries;
             ++retry) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          ticket = service.submit(queries[q]);
        }
        if (!ticket.accepted()) {
          outcome.error = "submit refused: " + ticket.reason;
        } else {
          try {
            outcome.response = ticket.result.get();
            outcome.ok = true;
          } catch (const std::exception& error) {
            outcome.error = std::string("request failed: ") + error.what();
          }
        }
        outcome.latency_s = now_seconds() - submitted;
        per_client[c].push_back(std::move(outcome));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  *wall_s = now_seconds() - start;
  std::vector<Outcome> outcomes;
  for (auto& list : per_client) {
    for (Outcome& outcome : list) outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

void ServeTotals::add(const serve::QueryService::Stats& stats) {
  cache_hits += stats.results.hits;
  cache_misses += stats.results.misses;
  searches += stats.searches;
  profile_hits += stats.profiles.hits;
  profile_misses += stats.profiles.misses;
  queue_full += stats.rejected_queue_full;
  group_passes += stats.shards.group_passes;
}

namespace {

double ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

}  // namespace

void set_serve_metrics(RunResult& result,
                       const std::vector<ServeRound>& rounds,
                       const ServeTotals& totals,
                       const obs::MetricsRegistry& registry) {
  std::vector<double> queue_ms, hit_queue_ms, execute_ms;
  for (const ServeRound& round : rounds) {
    for (const Outcome& outcome : round.outcomes) {
      if (!outcome.ok) continue;
      const serve::QueryResponse& response = outcome.response;
      queue_ms.push_back(response.queue_seconds * 1e3);
      if (response.cache_hit) {
        hit_queue_ms.push_back(response.queue_seconds * 1e3);
      } else {
        execute_ms.push_back(response.execute_seconds * 1e3);
      }
    }
  }
  double hit_queue_sum = 0.0;
  for (const double ms : hit_queue_ms) hit_queue_sum += ms;
  result.set("serve.queue_ms", median(queue_ms), "ms");
  // Mean, not median: hits are answered in microseconds unless they wait
  // behind an executing batch, and the mean is what that wait moves.
  result.set("serve.hit_queue_ms",
             ratio(hit_queue_sum, static_cast<double>(hit_queue_ms.size())),
             "ms");
  result.set("serve.execute_ms", median(execute_ms), "ms");
  result.set("serve.batch_size", registry.histogram("serve_batch_size").mean(),
             "count");
  const auto hits = static_cast<double>(totals.cache_hits);
  const auto misses = static_cast<double>(totals.cache_misses);
  result.set("serve.cache_hit_ratio", ratio(hits, hits + misses), "share");
  // Share of cache misses answered by another request's search.
  result.set("serve.collapse_ratio",
             ratio(misses - static_cast<double>(totals.searches), misses),
             "share");
  const auto profile_hits = static_cast<double>(totals.profile_hits);
  result.set("serve.profile_hit_ratio",
             ratio(profile_hits,
                   profile_hits + static_cast<double>(totals.profile_misses)),
             "share");
  result.set("serve.queue_full_rejections",
             static_cast<double>(totals.queue_full), "count");
}

double modeled_makespan(const std::vector<seq::Sequence>& queries,
                        std::uint64_t db_residues) {
  const master::MasterConfig config;  // the paper's performance model
  std::vector<sched::Task> tasks;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    tasks.push_back(config.model.make_task(
        q, static_cast<std::uint64_t>(requested_cells(queries[q],
                                                      db_residues))));
  }
  return sched::swdual_schedule(tasks, sched::HybridPlatform{2, 1})
      .makespan();
}

namespace {

double round_throughput(const ServeRound& round) {
  std::size_t answered = 0;
  for (const Outcome& outcome : round.outcomes) answered += outcome.ok ? 1 : 0;
  return static_cast<double>(answered) / round.wall_s;
}

}  // namespace

void set_serve_end_to_end(RunResult& result,
                          const std::vector<ServeRound>& rounds,
                          const std::vector<double>& setup_s,
                          const std::vector<seq::Sequence>& queries,
                          std::uint64_t db_residues, double makespan_s) {
  // Every figure is a median over rounds, robust to a round hit by host
  // contention. A round repeats the same requests, so its p95 is the cost
  // of the same slowest requests each time. Pooled over the run, p95 spread
  // 0.17-0.27 across runs on serve-cold-filtered, as against 0.08 for the
  // median of round p95s (with an earlier mix of 150-450-aa queries).
  std::vector<double> throughput, gcups, latency_ms, p50, p95;
  for (const ServeRound& round : rounds) {
    std::vector<double> round_ms;
    double cells = 0.0;
    for (const Outcome& outcome : round.outcomes) {
      if (!outcome.ok) continue;
      round_ms.push_back(outcome.latency_s * 1e3);
      // Searches the service ran: cache hits request no cells.
      if (!outcome.response.cache_hit) {
        cells += requested_cells(queries[outcome.query], db_residues);
      }
    }
    throughput.push_back(round_throughput(round));
    gcups.push_back(cells / round.wall_s / 1e9);
    p50.push_back(quantile(round_ms, 0.50));
    p95.push_back(quantile(round_ms, 0.95));
    latency_ms.insert(latency_ms.end(), round_ms.begin(), round_ms.end());
  }
  std::printf("latency_ms quantiles over %zu rounds (n=%zu):", rounds.size(),
              latency_ms.size());
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    std::printf(" p%g=%.4g", q * 100, quantile(latency_ms, q));
  }
  std::printf("\nround throughput (1/s): min=%.4g median=%.4g max=%.4g\n",
              quantile(throughput, 0), median(throughput),
              quantile(throughput, 1));
  result.set("setup_s", median(setup_s), "s");
  result.set("throughput_qps", median(throughput), "1/s");
  result.set("latency_p50_ms", median(p50), "ms");
  result.set("latency_p95_ms", median(p95), "ms");
  result.set("search_gcups", median(gcups), "GCUPS");
  result.set("virtual_makespan_s", makespan_s, "s");
}

double trace_overhead_pct(const std::vector<ServeRound>& untraced,
                          const std::vector<ServeRound>& traced) {
  std::vector<double> plain, with_trace;
  for (const ServeRound& round : untraced) {
    plain.push_back(round_throughput(round));
  }
  for (const ServeRound& round : traced) {
    with_trace.push_back(round_throughput(round));
  }
  return (median(plain) / median(with_trace) - 1.0) * 100.0;
}

}  // namespace perfbench
