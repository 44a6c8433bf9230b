// paper-batch: the paper's own experiment. The 40-query paper set (100-5000
// aa, seq::make_query_set) against a synthetic UniProt scaled by
// kScale, through master::run_search with the SWDUAL policy on 2 CPU
// workers and 1 virtual-GPU worker, exact interseq search, top-10.
//
// The query set is drawn once from the reference UniProt (profile seed
// fixed), and --seed draws the searched database. Cells per batch then
// move by about 1% between seeds, so the modeled makespan differs from seed
// to seed without its spread swamping the metric.
#include <cstdio>
#include <memory>

#include "checker.h"
#include "common.h"
#include "master/master.h"
#include "sched/dual_approx.h"
#include "seq/dbgen.h"
#include "seq/queryset.h"
#include "seq/swdb.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace swdual;

constexpr std::size_t kScale = 800;        ///< UniProt count divisor
constexpr std::size_t kSmokeScale = 20000;
constexpr std::size_t kSmokeQueries = 4;
constexpr std::size_t kTopHits = 10;
constexpr std::size_t kScanChecks = 2;     ///< queries checked by full scan
constexpr std::size_t kSetupReps = 15;      ///< set-ups before each batch
constexpr std::size_t kProbeQueries = 3;   ///< kernel probe sample

master::MasterConfig batch_config() {
  master::MasterConfig config;
  config.cpu_workers = 2;
  config.gpu_workers = 1;
  config.policy = master::AllocationPolicy::kSwdual;
  config.cpu_kernel = align::KernelKind::kInterSeq;
  config.top_hits = kTopHits;
  config.threads_per_cpu_worker = 1;
  return config;
}

}  // namespace

void generate_paper_batch(const Options& options) {
  const std::size_t scale = options.smoke ? kSmokeScale : kScale;
  const std::vector<seq::Sequence> reference =
      seq::generate_database(seq::table3_profile("uniprot", scale));
  std::vector<seq::Sequence> queries =
      seq::make_query_set(seq::QuerySetKind::kPaper, reference, 42);
  if (options.smoke) queries.resize(kSmokeQueries);
  seq::DatabaseProfile profile = seq::table3_profile("uniprot", scale);
  profile.seed = 0x5eed0000ULL + options.seed;
  seq::write_swdb(db_path(options), seq::generate_database(profile),
                  seq::AlphabetKind::kProtein);
  seq::write_swdb(queries_path(options), queries, seq::AlphabetKind::kProtein);
}

RunResult run_paper_batch(const Options& options) {
  RunResult result;
  const align::ScoringScheme scheme;  // BLOSUM62, gaps 10 + 2 per residue

  // Set-up: open the database and the query set and build the residue
  // views. It takes tens of microseconds, so it is repeated before every
  // batch: the median then spans the whole run, not one moment of it.
  std::vector<double> setup_s;
  std::vector<seq::Sequence> queries;
  std::shared_ptr<const seq::MappedSwdb> db;
  align::DbView view;
  const auto set_up = [&] {
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
      const double start = now_seconds();
      queries = read_records(queries_path(options));
      db = std::make_shared<const seq::MappedSwdb>(db_path(options));
      view = db->residue_views();
      setup_s.push_back(now_seconds() - start);
    }
  };
  set_up();
  const check::RecordFn record = [&view](std::size_t i) { return view[i]; };
  double cells_requested = 0.0;
  for (const seq::Sequence& query : queries) {
    cells_requested += requested_cells(query, db->total_residues());
  }

  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  std::vector<double> untraced_s, traced_s;
  std::vector<std::vector<align::SearchHit>> first_answer;
  double makespan = -1.0;
  std::uint64_t cells = 0;
  double virtual_idle = 0.0;
  const double start = now_seconds();
  // Untraced batches fill the run; a traced run spends its second half on
  // batches with the program's tracer and metrics attached.
  const double untraced_until =
      start + (options.trace ? options.seconds / 2 : options.seconds);
  const double deadline = start + options.seconds;
  for (bool traced : {false, true}) {
    if (traced && !options.trace) break;
    do {
      if (!untraced_s.empty()) set_up();
      master::MasterConfig config = batch_config();
      obs::Span span;
      if (traced) {
        config.tracer = &tracer;
        config.metrics = &registry;
        span = tracer.span("master.run_search", "probe", kProbeTrack);
      }
      const std::size_t n = queries.size();
      result.attempted += n;
      master::SearchReport report;
      const double batch_start = now_seconds();
      try {
        report = master::run_search(queries, view, config);
      } catch (const std::exception& error) {
        for (std::size_t q = 0; q < n; ++q) result.fail(error.what());
        continue;
      }
      (traced ? traced_s : untraced_s).push_back(now_seconds() - batch_start);
      span.finish();

      if (first_answer.empty()) {
        // First answers: every hit re-scored, a seeded sample checked in
        // full against the checker's own scan.
        Rng pick(options.seed);
        std::vector<std::size_t> scanned;
        for (std::size_t i = 0; i < std::min(kScanChecks, n); ++i) {
          scanned.push_back(pick.below(n));
        }
        for (std::size_t q = 0; q < n; ++q) {
          const auto& hits = report.results[q].hits;
          const check::Residues residues(queries[q].residues);
          std::string reason = check::check_ranking(hits, view.size());
          if (reason.empty() && hits.size() != std::min(kTopHits, view.size())) {
            reason = "short hit list";
          }
          if (reason.empty()) {
            reason = check::check_scores(hits, residues, record, scheme);
          }
          if (reason.empty() &&
              std::find(scanned.begin(), scanned.end(), q) != scanned.end()) {
            reason = check::check_top_k(
                hits, check::exact_top_k(residues, view.size(), record,
                                         kTopHits, scheme, 3));
          }
          if (!reason.empty()) result.reject("query " + std::to_string(q) +
                                             ": " + reason);
          first_answer.push_back(hits);
        }
        makespan = report.virtual_makespan;
        cells = report.total_cells;
        virtual_idle = report.virtual_idle_fraction;
      } else {
        for (std::size_t q = 0; q < n; ++q) {
          const std::string reason =
              check::check_same(report.results[q].hits, first_answer[q]);
          if (!reason.empty()) {
            result.reject("query " + std::to_string(q) + ": " + reason);
          }
        }
        if (report.virtual_makespan != makespan ||
            report.total_cells != cells) {
          result.reject("virtual makespan or cell count changed between "
                        "batches of the same inputs");
        }
      }
    } while (now_seconds() < (traced ? deadline : untraced_until) &&
             !options.smoke);
  }
  result.completed = result.attempted - result.failed;
  if (untraced_s.empty()) return result;
  std::printf("batch wall (s):");
  for (const double s : untraced_s) std::printf(" %.3f", s);
  std::printf("\n");
  // The first batch warms the process up (first touch of the mapped
  // database, allocator arenas, thread stacks) and ran 30% slower than the
  // rest; it is checked but not timed.
  if (untraced_s.size() > 1) untraced_s.erase(untraced_s.begin());

  const double n = static_cast<double>(queries.size());
  const double batch_s = median(untraced_s);
  if (!options.trace) {
    result.set("setup_s", median(setup_s), "s");
    result.set("search_gcups", cells_requested / batch_s / 1e9, "GCUPS");
    result.set("throughput_qps", n / batch_s, "1/s");
    // Every query of a batch is answered when run_search returns.
    result.set("latency_p50_ms", batch_s * 1e3, "ms");
    result.set("latency_p95_ms", quantile(untraced_s, 0.95) * 1e3, "ms");
    result.set("virtual_makespan_s", makespan, "s");
    return result;
  }

  // Per-layer figures: the program's own counts, spans of its tracer, and
  // the benchmark's timed calls into the layers' public functions.
  std::vector<double> open_ms;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    open_ms.push_back(timed_probe(&tracer, "seq.open", [&] {
      seq::MappedSwdb reopened(db_path(options));
    }));
  }
  result.set("seq.open_ms", median(open_ms), "ms");

  double probe_cells = 0.0, probe_s = 0.0;
  Rng pick(options.seed ^ 0x9e3779b97f4a7c15ULL);
  for (std::size_t i = 0; i < kProbeQueries; ++i) {
    const seq::Sequence& query = queries[pick.below(queries.size())];
    align::SearchResult scanned;
    probe_s += timed_probe(&tracer, "align.search_database", [&] {
                 scanned = align::search_database(
                     check::Residues(query.residues), view, scheme,
                     align::KernelKind::kInterSeq);
               }) / 1e3;
    probe_cells += static_cast<double>(scanned.cells);
  }
  result.set("align.kernel.gcups", probe_cells / probe_s / 1e9, "GCUPS");
  result.set("align.kernel.cells", static_cast<double>(cells), "count");

  const master::MasterConfig config = batch_config();
  std::vector<sched::Task> tasks;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    tasks.push_back(config.model.make_task(
        q, static_cast<std::uint64_t>(
               requested_cells(queries[q], db->total_residues()))));
  }
  const sched::HybridPlatform platform{config.cpu_workers,
                                       config.gpu_workers};
  std::vector<double> plan_ms;
  sched::Schedule plan;
  for (std::size_t rep = 0; rep < 9; ++rep) {
    plan_ms.push_back(timed_probe(&tracer, "sched.swdual_schedule", [&] {
      plan = sched::swdual_schedule(tasks, platform);
    }));
  }
  result.set("sched.plan_ms", median(plan_ms), "ms");
  result.set("sched.makespan_over_bound",
             plan.makespan() / sched::makespan_lower_bound(tasks, platform),
             "ratio");

  const std::vector<obs::TraceEvent> events = tracer.flush();
  const MasterSpanSummary spans = summarize_master_spans(
      events, config.cpu_workers + config.gpu_workers, config.gpu_workers);
  result.set("master.batch_ms", median(traced_s) * 1e3, "ms");
  result.set("master.worker_busy_share", spans.worker_busy_share, "share");
  result.set("master.gpu_task_share", spans.gpu_task_share, "share");
  result.set("master.virtual_idle_share", virtual_idle, "share");
  result.set("trace.overhead_pct",
             (median(traced_s) / batch_s - 1.0) * 100.0, "%");
  result.events = events;
  return result;
}

}  // namespace perfbench
