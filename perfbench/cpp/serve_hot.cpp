// serve-hot-mixed: Zipf-skewed repeats from a hot pool that fits the result
// cache, plus a fixed share of fresh queries. Exact search with stats
// annotation through the unsharded master path (2 CPU + 1 virtual-GPU
// workers per micro-batch). Admission, micro-batching and cache reads do
// most of the work; the filter and sharding do nothing.
//
// Each round builds a fresh service, answers the hot pool once to fill the
// cache (untimed), then times three closed-loop clients whose request
// lists are fixed by the seed: every kFreshEvery-th request is a query no
// request has sent before, the rest are hot-pool picks. Every round thus
// does the same work: the same cache hits and the same searches.
//
// Fresh share: with 1 fresh request in 10, p50 falls in the mode of hits
// answered at once (about 0.03 ms, two thread wake-ups), whose median moved
// by 27-40% between runs of the same inputs on a 4-core VM. With 1 in 2,
// p10 is still such a hit but p25 already waits behind a search, so p50
// and p95 both fall in the mode of requests that run, or wait behind, a
// search.
#include <cmath>
#include <memory>

#include "align/annotate.h"
#include "checker.h"
#include "serve_common.h"
#include "seq/dbgen.h"
#include "seq/swdb.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace swdual;

constexpr std::size_t kScale = 800;  ///< UniProt count divisor
constexpr std::size_t kSmokeScale = 20000;
constexpr std::size_t kClients = 3;
constexpr std::size_t kHotPool = 16;
constexpr std::size_t kSmokeHotPool = 3;
constexpr std::size_t kPerClient = 24;  ///< timed requests per client/round
constexpr std::size_t kSmokePerClient = 4;
constexpr std::size_t kFreshEvery = 2;
constexpr double kZipfS = 1.1;
constexpr std::size_t kTopHits = 10;
constexpr std::size_t kProbeQueries = 3;

struct Shape {
  std::size_t hot, per_client;
  std::size_t fresh_per_client() const {
    return (per_client + kFreshEvery - 1) / kFreshEvery;
  }
};

Shape shape(const Options& options) {
  return options.smoke ? Shape{kSmokeHotPool, kSmokePerClient}
                       : Shape{kHotPool, kPerClient};
}

serve::ServiceConfig service_config() {
  serve::ServiceConfig config;
  config.master.cpu_workers = 2;
  config.master.gpu_workers = 1;
  config.master.policy = master::AllocationPolicy::kSwdual;
  config.master.cpu_kernel = align::KernelKind::kInterSeq;
  config.master.top_hits = kTopHits;
  config.master.annotate.mode = align::AnnotateMode::kStats;
  config.db_id = "serve-hot-mixed";
  return config;
}

/// Client c's request list: query indices into [hot pool | fresh queries].
std::vector<std::vector<std::size_t>> request_plan(const Options& options,
                                                   const Shape& s) {
  std::vector<double> cdf;
  double total = 0.0;
  for (std::size_t i = 0; i < s.hot; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
    cdf.push_back(total);
  }
  std::vector<std::vector<std::size_t>> plan(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    Rng rng(options.seed * 1000003ULL + c);
    for (std::size_t i = 0; i < s.per_client; ++i) {
      if (i % kFreshEvery == kFreshEvery - 1) {
        plan[c].push_back(s.hot + c * s.fresh_per_client() + i / kFreshEvery);
        continue;
      }
      const double u = rng.uniform() * total;
      std::size_t pick = 0;
      while (pick + 1 < s.hot && cdf[pick] <= u) ++pick;
      plan[c].push_back(pick);
    }
  }
  return plan;
}

}  // namespace

void generate_serve_hot(const Options& options) {
  seq::DatabaseProfile profile =
      seq::table3_profile("uniprot", options.smoke ? kSmokeScale : kScale);
  profile.seed = 0x40700000ULL + options.seed;
  const Shape s = shape(options);
  std::vector<seq::Sequence> queries =
      make_queries("hot", s.hot, options.seed * 0x2545f4914f6cdd1dULL + 7);
  for (seq::Sequence& fresh :
       make_queries("fresh", kClients * s.fresh_per_client(),
                    options.seed * 0x9e3779b97f4a7c15ULL + 5)) {
    queries.push_back(std::move(fresh));
  }
  seq::write_swdb(db_path(options), seq::generate_database(profile),
                  seq::AlphabetKind::kProtein);
  seq::write_swdb(queries_path(options), queries, seq::AlphabetKind::kProtein);
}

RunResult run_serve_hot(const Options& options) {
  RunResult result;
  const align::ScoringScheme scheme;  // BLOSUM62, gaps 10 + 2 per residue
  const Shape s = shape(options);
  const std::vector<seq::Sequence> queries =
      read_records(queries_path(options));
  const auto reader = std::make_shared<const seq::MappedSwdb>(db_path(options));
  const align::DbView view = reader->residue_views();
  const check::RecordFn record = [&view](std::size_t i) { return view[i]; };
  const std::vector<std::vector<std::size_t>> plan =
      request_plan(options, s);
  std::vector<std::vector<std::size_t>> warm_plan(kClients);
  for (std::size_t q = 0; q < s.hot; ++q) warm_plan[q % kClients].push_back(q);

  // The first answer for each query is re-scored; every later answer, cache
  // hit or fresh search in a later round, must equal it.
  std::vector<std::vector<align::SearchHit>> first(queries.size());
  std::vector<bool> seen(queries.size(), false);
  const auto check_answer = [&](const Outcome& outcome) {
    if (!outcome.ok) {
      result.fail(outcome.error);
      return;
    }
    const auto& hits = outcome.response.hits;
    const std::size_t q = outcome.query;
    std::string reason;
    if (seen[q]) {
      reason = check::check_same(hits, first[q]);
    } else {
      reason = check::check_ranking(hits, view.size());
      if (reason.empty() && hits.size() != std::min(kTopHits, view.size())) {
        reason = "short hit list";
      }
      if (reason.empty()) {
        reason = check::check_scores(hits, check::Residues(queries[q].residues),
                                     record, scheme);
      }
      if (reason.empty()) reason = check::check_evalues(hits);
      first[q] = hits;
      seen[q] = true;
    }
    if (!reason.empty()) result.reject("query " + std::to_string(q) + ": " +
                                       reason);
  };

  obs::Tracer tracer;
  obs::MetricsRegistry deployed_registry, traced_registry;
  std::vector<double> setup_s;
  std::vector<ServeRound> untraced, traced;
  ServeTotals traced_totals;
  const double start = now_seconds();
  const double untraced_until =
      start + (options.trace ? options.seconds / 2 : options.seconds);
  const double deadline = start + options.seconds;
  for (bool tracing : {false, true}) {
    if (tracing && !options.trace) break;
    do {
      serve::ServiceConfig config = service_config();
      config.metrics = tracing ? &traced_registry : &deployed_registry;
      if (tracing) config.tracer = &tracer;
      const double setup_start = now_seconds();
      auto service = std::make_unique<serve::QueryService>(
          std::make_shared<const seq::MappedSwdb>(db_path(options)),
          std::move(config));
      setup_s.push_back(now_seconds() - setup_start);
      ServeRound round;
      const std::vector<Outcome> warm =
          drive_closed_loop(*service, queries, warm_plan, &round.wall_s);
      result.attempted += warm.size();
      for (const Outcome& outcome : warm) check_answer(outcome);
      round.outcomes = drive_closed_loop(*service, queries, plan, &round.wall_s,
                                         tracing ? &tracer : nullptr);
      service->shutdown();
      if (tracing) traced_totals.add(service->stats());
      service.reset();
      result.attempted += round.outcomes.size();
      for (Outcome& outcome : round.outcomes) {
        check_answer(outcome);
        outcome.release_hits();
      }
      if (!options.trace && untraced.empty()) {
        // One service's lifetime, as deployed (see serve_cold.cpp).
        result.set("peak_rss_mb", peak_rss_mb(), "MB");
      }
      (tracing ? traced : untraced).push_back(std::move(round));
    } while (now_seconds() < (tracing ? deadline : untraced_until) &&
             !options.smoke);
  }
  result.completed = result.attempted - result.failed;
  if (untraced.empty()) return result;
  // The first round warms the process up (first touch of the mapped
  // database, allocator arenas); it is checked but not timed.
  if (untraced.size() > 1) untraced.erase(untraced.begin());

  const std::vector<seq::Sequence> fresh(queries.begin() +
                                             static_cast<std::ptrdiff_t>(s.hot),
                                         queries.end());
  if (!options.trace) {
    set_serve_end_to_end(result, untraced, setup_s, queries,
                         reader->total_residues(),
                         modeled_makespan(fresh, reader->total_residues()));
    return result;
  }

  // Per-layer figures.
  set_serve_metrics(result, traced, traced_totals, traced_registry);
  std::vector<obs::TraceEvent> events = tracer.flush();
  const serve::ServiceConfig config = service_config();
  const MasterSpanSummary spans = summarize_master_spans(
      events, config.master.cpu_workers + config.master.gpu_workers,
      config.master.gpu_workers);
  result.set("master.batch_ms", spans.batch_ms, "ms");
  result.set("master.worker_busy_share", spans.worker_busy_share, "share");
  result.set("master.gpu_task_share", spans.gpu_task_share, "share");
  result.set("master.virtual_idle_share", spans.virtual_idle_share, "share");

  std::vector<double> open_ms;
  for (std::size_t rep = 0; rep < 5; ++rep) {
    open_ms.push_back(timed_probe(&tracer, "seq.open", [&] {
      seq::MappedSwdb reopened(db_path(options));
    }));
  }
  result.set("seq.open_ms", median(open_ms), "ms");

  std::shared_ptr<const align::KarlinAltschulParams> params;
  std::vector<double> calibrate_ms;
  for (std::size_t rep = 0; rep < 3; ++rep) {
    calibrate_ms.push_back(timed_probe(&tracer, "align.calibrate", [&] {
      align::StatsCache cache;
      params = cache.acquire(scheme, seq::Alphabet::get(reader->alphabet()),
                             config.db_id);
    }));
  }
  result.set("align.annotate.calibrate_ms", median(calibrate_ms), "ms");

  double probe_cells = 0.0, probe_s = 0.0;
  std::vector<double> annotate_ms;
  for (std::size_t i = 0; i < std::min(kProbeQueries, fresh.size()); ++i) {
    const std::size_t q = s.hot + i;
    const check::Residues residues(queries[q].residues);
    align::SearchResult scanned;
    probe_s += timed_probe(&tracer, "align.search_database", [&] {
                 scanned = align::search_database(residues, view, scheme,
                                                  config.master.cpu_kernel);
               }) / 1e3;
    probe_cells += static_cast<double>(scanned.cells);
    std::vector<align::SearchHit> hits = first[q];
    for (align::SearchHit& hit : hits) hit.annotation.reset();
    annotate_ms.push_back(timed_probe(&tracer, "align.annotate_hits", [&] {
      align::annotate_hits(hits, residues, view, scheme,
                           config.master.annotate, *params,
                           reader->total_residues());
    }));
  }
  result.set("align.kernel.gcups", probe_s > 0 ? probe_cells / probe_s / 1e9
                                               : 0.0,
             "GCUPS");
  result.set("align.kernel.cells", probe_cells, "count");
  result.set("align.annotate.ms", median(annotate_ms), "ms");
  result.set("trace.overhead_pct", trace_overhead_pct(untraced, traced), "%");
  result.events = std::move(events);
  // The probes above recorded spans after the flush; append them.
  for (obs::TraceEvent& event : tracer.flush()) {
    result.events.push_back(std::move(event));
  }
  return result;
}

}  // namespace perfbench
