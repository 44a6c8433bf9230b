// Tests for search-report annotation and rendering.
#include <gtest/gtest.h>

#include <cmath>

#include "align/annotate.h"
#include "core/report.h"
#include "seq/dbgen.h"
#include "util/error.h"
#include "util/rng.h"

namespace swdual::core {
namespace {

align::KarlinAltschulParams test_params() { return {0.3, 0.1}; }

TEST(AnnotateHits, BitsAndEvaluesComputed) {
  // The report reads what align::annotate_hits attaches in stats mode.
  std::vector<align::SearchHit> hits = {{3, 100}, {7, 40}};
  const std::vector<std::uint8_t> query(200, 0);
  align::AnnotateConfig stats;
  stats.mode = align::AnnotateMode::kStats;
  align::annotate_hits(hits, {query.data(), query.size()}, align::DbView{},
                       align::ScoringScheme{}, stats, test_params(),
                       1'000'000);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].db_index, 3u);
  EXPECT_GT(hits[0].annotation->bits, hits[1].annotation->bits);
  EXPECT_LT(hits[0].annotation->evalue, hits[1].annotation->evalue);
  EXPECT_NEAR(hits[0].annotation->evalue,
              0.1 * 200.0 * 1e6 * std::exp(-0.3 * 100), 1e-9);
}

/// A one-CPU, one-GPU master run annotated in stats mode at `cutoff`.
master::SearchReport annotated_run(const std::vector<seq::Sequence>& queries,
                                   const std::vector<seq::Sequence>& db,
                                   const align::KarlinAltschulParams& params,
                                   double cutoff, std::size_t top_hits = 10) {
  master::MasterConfig config;
  config.cpu_workers = 1;
  config.gpu_workers = 1;
  config.top_hits = top_hits;
  config.annotate = {align::AnnotateMode::kStats, cutoff};
  config.stats = &params;
  return master::run_search(queries, db, config);
}

TEST(RenderReport, ShowsSignificantHitsOnly) {
  Rng rng(11);
  std::vector<seq::Sequence> db, queries;
  for (int i = 0; i < 10; ++i) {
    db.push_back(seq::random_protein(rng, "ref" + std::to_string(i), 100));
  }
  queries.push_back(db[4]);  // exact copy: extremely significant
  queries[0].id = "probe";

  const align::KarlinAltschulParams params = test_params();
  const auto report = annotated_run(queries, db, params, 1e-3, 3);

  const std::string text = render_search_report(queries, db, report, 1e-3);
  EXPECT_NE(text.find("Query: probe"), std::string::npos);
  EXPECT_NE(text.find("ref4"), std::string::npos);  // the self hit survives
  EXPECT_NE(text.find("GCUPS"), std::string::npos);
}

TEST(RenderReport, SuppressesInsignificantQueries) {
  Rng rng(13);
  std::vector<seq::Sequence> db, queries;
  for (int i = 0; i < 10; ++i) {
    db.push_back(seq::random_protein(rng, "ref" + std::to_string(i), 100));
  }
  queries.push_back(seq::random_protein(rng, "orphan", 100));
  // Absurdly strict cutoff: nothing qualifies.
  const align::KarlinAltschulParams params = test_params();
  const auto report = annotated_run(queries, db, params, 1e-30);
  const std::string text = render_search_report(queries, db, report, 1e-30);
  EXPECT_NE(text.find("no hits below"), std::string::npos);
}

TEST(RenderReport, RejectsNonPositiveCutoff) {
  const master::SearchReport report;
  EXPECT_THROW(
      render_search_report({}, {}, report, 0.0),
      InvalidArgument);
}

}  // namespace
}  // namespace swdual::core
