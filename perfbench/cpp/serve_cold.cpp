// serve-cold-filtered: every request is a query the service has never seen.
// A closed-loop client searches a UniProt-like database into which kPlanted
// mutated copies (substitutions and short indels) of every query were
// planted, so each query's exact top-k is its planted homologs by
// construction. The service runs the sharded path (3 shards x 1 thread)
// with the heuristic two-stage filter and stats+cigar annotation: screen,
// candidate selection, rescan, merge and annotation all sit on the path of
// every request, and the result cache is written but never read.
//
// Each round builds a fresh service (that is the set-up being timed), so a
// round repeats the same queries without ever hitting the cache.
//
// One client: with three, a request arriving during another request's
// shard pass waits for it, and the quartile spread over median of p95 across
// runs was 0.22-0.31, about twice that of throughput. With one client p95
// is the cost of the longest queries and spreads like throughput, and every
// batch holds one query: the shared pass of several distinct queries is
// measured only by the traced run's group probe.
#include <algorithm>
#include <memory>

#include "align/annotate.h"
#include "align/sharded_search.h"
#include "checker.h"
#include "serve_common.h"
#include "seq/dbgen.h"
#include "seq/swdb.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace swdual;

constexpr std::size_t kScale = 400;  ///< UniProt count divisor, base records
constexpr std::size_t kSmokeScale = 20000;
constexpr std::size_t kClients = 1;
constexpr std::size_t kPerClient = 45;  ///< requests per client per round
constexpr std::size_t kSmokePerClient = 2;
constexpr std::size_t kTopHits = 10;
constexpr std::size_t kPlanted = kTopHits;  ///< homologs per query
constexpr std::size_t kProbeQueries = 6;
constexpr std::size_t kProbeGroup = 3;  ///< distinct queries per group probe
constexpr std::uint64_t kInputSeed = 0xc01d0000ULL;  ///< database, queries

std::size_t per_client(const Options& options) {
  return options.smoke ? kSmokePerClient : kPerClient;
}

serve::ServiceConfig service_config() {
  serve::ServiceConfig config;
  config.master.cpu_kernel = align::KernelKind::kInterSeq;
  config.master.top_hits = kTopHits;
  config.master.filter.mode = align::FilterMode::kHeuristic;
  config.master.annotate.mode = align::AnnotateMode::kStatsCigar;
  config.shards = 3;
  config.threads_per_shard = 1;
  config.db_id = "serve-cold-filtered";
  return config;
}

/// A homolog of `query`: substitutions at a rate growing with `variant`,
/// plus a short deletion and/or insertion on some variants.
std::vector<std::uint8_t> plant(const std::vector<std::uint8_t>& query,
                                std::size_t variant, Rng& rng) {
  std::vector<std::uint8_t> h = query;
  const std::uint64_t per_mille = 80 + 20 * variant;
  for (std::uint8_t& residue : h) {
    if (rng.below(1000) < per_mille) {
      residue = static_cast<std::uint8_t>(rng.below(20));
    }
  }
  if (variant % 2 == 1) {
    const std::size_t at = 10 + rng.below(h.size() - 20);
    h.erase(h.begin() + static_cast<std::ptrdiff_t>(at),
            h.begin() + static_cast<std::ptrdiff_t>(at + 1 + rng.below(3)));
  }
  if (variant % 3 == 2) {
    const std::size_t at = 10 + rng.below(h.size() - 20);
    std::vector<std::uint8_t> extra(1 + rng.below(3));
    for (std::uint8_t& residue : extra) {
      residue = static_cast<std::uint8_t>(rng.below(20));
    }
    h.insert(h.begin() + static_cast<std::ptrdiff_t>(at), extra.begin(),
             extra.end());
  }
  return h;
}

}  // namespace

void generate_serve_cold(const Options& options) {
  seq::DatabaseProfile profile =
      seq::table3_profile("uniprot", options.smoke ? kSmokeScale : kScale);
  // The database and the query residues are fixed; the seed draws the
  // homologs' mutations. Which queries rescan the database's 35,213-residue
  // record depends on residues, and those rescans dominate the round: with
  // seeded residues, 3-11 of 45 queries (5-30% of the query residues) did
  // so across five seeds, and p95 spread 0.37 across runs.
  profile.seed = kInputSeed;
  std::vector<seq::Sequence> db = seq::generate_database(profile);
  const std::size_t count = kClients * per_client(options);
  const std::vector<seq::Sequence> queries =
      make_queries("cold", count, kInputSeed);
  Rng rng(options.seed * 0x2545f4914f6cdd1dULL + 3);
  // Homologs of query q occupy records base + q*kPlanted ... + kPlanted-1.
  for (std::size_t q = 0; q < count; ++q) {
    for (std::size_t p = 0; p < kPlanted; ++p) {
      db.emplace_back("h" + std::to_string(q) + "_" + std::to_string(p), "",
                      seq::AlphabetKind::kProtein,
                      plant(queries[q].residues, p, rng));
    }
  }
  seq::write_swdb(db_path(options), db, seq::AlphabetKind::kProtein);
  seq::write_swdb(queries_path(options), queries, seq::AlphabetKind::kProtein);
}

RunResult run_serve_cold(const Options& options) {
  RunResult result;
  const align::ScoringScheme scheme;  // BLOSUM62, gaps 10 + 2 per residue
  const std::vector<seq::Sequence> queries =
      read_records(queries_path(options));
  const auto reader = std::make_shared<const seq::MappedSwdb>(db_path(options));
  const align::DbView view = reader->residue_views();
  const check::RecordFn record = [&view](std::size_t i) { return view[i]; };
  const std::size_t base = view.size() - queries.size() * kPlanted;

  std::vector<std::vector<std::size_t>> plan(kClients);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    plan[q % kClients].push_back(q);
  }

  // Answers of the first round are checked in full; later rounds must give
  // the same answers.
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
      const check::Residues residues(queries[q].residues);
      reason = check::check_ranking(hits, view.size());
      if (reason.empty() && outcome.response.partial) {
        reason = "partial answer: " + outcome.response.partial_reason;
      }
      if (reason.empty()) {
        std::vector<std::size_t> got;
        for (const align::SearchHit& hit : hits) got.push_back(hit.db_index);
        std::sort(got.begin(), got.end());
        for (std::size_t p = 0; p < kPlanted && reason.empty(); ++p) {
          if (got.size() != kPlanted || got[p] != base + q * kPlanted + p) {
            reason = "top-k is not the planted homologs";
          }
        }
      }
      if (reason.empty()) {
        reason = check::check_scores(hits, residues, record, scheme);
      }
      if (reason.empty()) {
        reason = check::check_cigars(hits, residues, record, scheme);
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
        // One service's lifetime, as deployed. Later rounds create fresh
        // services and threads, and the freed memory the allocator keeps
        // for each new thread's arena raised the process peak from round
        // to round (serve-cold-filtered: 36 to 56 MB over 8 rounds).
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

  if (!options.trace) {
    set_serve_end_to_end(result, untraced, setup_s, queries,
                         reader->total_residues(),
                         modeled_makespan(queries, reader->total_residues()));
    return result;
  }

  // Per-layer figures.
  set_serve_metrics(result, traced, traced_totals, traced_registry);
  double candidates = 0.0, band_uncertain = 0.0, kept = 0.0, rescans = 0.0;
  std::size_t answered = 0;
  for (const ServeRound& round : traced) {
    for (const Outcome& outcome : round.outcomes) {
      if (!outcome.ok) continue;
      ++answered;
      candidates += static_cast<double>(outcome.response.filter.candidates);
      band_uncertain +=
          static_cast<double>(outcome.response.filter.band_uncertain);
      rescans += static_cast<double>(outcome.response.filter.rescans);
      kept += static_cast<double>(outcome.hit_count);
    }
  }
  const double per_answer = answered > 0 ? 1.0 / static_cast<double>(answered)
                                         : 0.0;
  result.set("align.filter.candidates", candidates * per_answer, "count");
  result.set("align.filter.band_uncertain", band_uncertain * per_answer,
             "count");
  result.set("align.filter.rescan_yield", rescans > 0 ? kept / rescans : 0.0,
             "share");
  // 1 by construction here: the one client never puts two queries into a
  // batch.
  result.set("align.sharded.db_passes_per_query",
             traced_totals.searches > 0
                 ? static_cast<double>(traced_totals.group_passes) /
                       static_cast<double>(traced_totals.searches)
                 : 0.0,
             "ratio");

  std::vector<double> open_ms;
  for (std::size_t rep = 0; rep < 5; ++rep) {
    open_ms.push_back(timed_probe(&tracer, "seq.open", [&] {
      seq::MappedSwdb reopened(db_path(options));
    }));
  }
  result.set("seq.open_ms", median(open_ms), "ms");

  const serve::ServiceConfig config = service_config();
  const align::FilterConfig& filter = config.master.filter;
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

  std::vector<double> screen_ms, rescan_ms, annotate_ms;
  const std::size_t probes = std::min(kProbeQueries, queries.size());
  for (std::size_t q = 0; q < probes; ++q) {
    const check::Residues residues(queries[q].residues);
    const align::SearchProfiles profiles(residues, scheme,
                                         config.master.cpu_kernel);
    align::ScreenResult screen;
    screen_ms.push_back(timed_probe(&tracer, "align.screen_range", [&] {
      screen = align::screen_range(profiles, view, 0, view.size(),
                                   filter.band);
    }));
    std::vector<std::uint32_t> picked;
    rescan_ms.push_back(timed_probe(&tracer, "align.rescan", [&] {
      picked = align::filter_select_candidates(screen, kTopHits, filter,
                                               nullptr);
      align::DbView candidates_view;
      for (const std::uint32_t i : picked) candidates_view.push_back(view[i]);
      align::search_range(profiles, candidates_view, 0,
                          candidates_view.size());
    }));
    std::vector<align::SearchHit> hits = first[q];
    for (align::SearchHit& hit : hits) hit.annotation.reset();
    annotate_ms.push_back(timed_probe(&tracer, "align.annotate_hits", [&] {
      align::annotate_hits(hits, residues, view, scheme,
                           config.master.annotate, *params,
                           reader->total_residues());
    }));
  }
  result.set("align.filter.screen_ms", median(screen_ms), "ms");
  result.set("align.filter.rescan_ms", median(rescan_ms), "ms");
  result.set("align.annotate.ms", median(annotate_ms), "ms");

  align::ShardedSearchOptions sharding;
  sharding.num_shards = config.shards;
  sharding.threads_per_shard = config.threads_per_shard;
  const align::ShardedSearchEngine engine(reader, sharding);
  result.set("align.sharded.imbalance", engine.plan().imbalance(), "ratio");
  // The workload's one client never puts two queries into a batch, so the
  // shared pass of a batch's distinct queries over each shard chunk is
  // probed here, on groups of kProbeGroup distinct queries.
  std::vector<double> group_ms;
  for (std::size_t q = 0; q + kProbeGroup <= probes; q += kProbeGroup) {
    std::vector<check::Residues> group;
    for (std::size_t i = q; i < q + kProbeGroup; ++i) {
      group.emplace_back(queries[i].residues);
    }
    group_ms.push_back(timed_probe(&tracer, "align.sharded.group", [&] {
      engine.search_many_filtered(group, scheme, config.master.cpu_kernel,
                                  kTopHits, filter);
    }));
  }
  result.set("align.sharded.group_ms", median(group_ms), "ms");
  result.set("trace.overhead_pct", trace_overhead_pct(untraced, traced), "%");
  result.events = tracer.flush();
  return result;
}

}  // namespace perfbench
