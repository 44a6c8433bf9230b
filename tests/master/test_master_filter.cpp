// Two-stage filtered search through the master–slave runtime (ctest labels:
// filter threads). Every worker type — GPU (host screen, device rescan),
// serial CPU and chunked CPU — must return the hits and filter counters of
// the serial search_database_filtered reference, with and without a shared
// profile cache, and the filter_* metrics must be emitted exactly once per
// query on every execution path.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "align/profile_cache.h"
#include "align/search.h"
#include "align/sharded_search.h"
#include "master/master.h"
#include "obs/metrics.h"
#include "seq/dbgen.h"
#include "util/rng.h"

namespace swdual::master {
namespace {

constexpr std::size_t kTop = 5;

align::FilterConfig heuristic() {
  align::FilterConfig config;
  config.mode = align::FilterMode::kHeuristic;
  config.band = 12;
  config.keep_factor = 3.0;
  return config;
}

/// Queries plus a database holding random records and a few mutated copies
/// of every query, so each query has real homologs for the screen to keep.
struct Corpus {
  std::vector<seq::Sequence> queries;
  std::vector<seq::Sequence> db;

  Corpus() {
    Rng rng(0xf17e);
    for (std::size_t q = 0; q < 5; ++q) {
      queries.push_back(seq::random_protein(
          rng, "q" + std::to_string(q),
          static_cast<std::size_t>(rng.between(60, 140))));
    }
    for (std::size_t d = 0; d < 110; ++d) {
      db.push_back(seq::random_protein(
          rng, "d" + std::to_string(d),
          static_cast<std::size_t>(rng.between(20, 220))));
    }
    for (const seq::Sequence& query : queries) {
      for (std::size_t copy = 0; copy < 3; ++copy) {
        seq::Sequence homolog = query;
        homolog.id += "_h" + std::to_string(copy);
        for (std::size_t p = copy; p < homolog.residues.size(); p += 11) {
          homolog.residues[p] = static_cast<std::uint8_t>(rng.below(20));
        }
        db.insert(db.begin() + static_cast<std::ptrdiff_t>(rng.below(
                                   static_cast<std::uint64_t>(db.size()))),
                  std::move(homolog));
      }
    }
  }

  std::span<const std::uint8_t> query(std::size_t q) const {
    return {queries[q].residues.data(), queries[q].residues.size()};
  }

  /// Serial reference, one result per query.
  std::vector<align::FilteredSearchResult> serial() const {
    const align::DbView view = align::make_db_view(db);
    std::vector<align::FilteredSearchResult> out;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      out.push_back(align::search_database_filtered(
          query(q), view, align::ScoringScheme{}, align::KernelKind::kInterSeq,
          kTop, heuristic()));
    }
    return out;
  }
};

void expect_same_hits(const std::vector<align::SearchHit>& got,
                      const std::vector<align::SearchHit>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].db_index, want[i].db_index) << what << " #" << i;
    EXPECT_EQ(got[i].score, want[i].score) << what << " #" << i;
  }
}

void expect_same_stats(const align::FilterStats& got,
                       const align::FilterStats& want,
                       const std::string& what) {
  EXPECT_EQ(got.candidates, want.candidates) << what;
  EXPECT_EQ(got.rescans, want.rescans) << what;
  EXPECT_EQ(got.band_uncertain, want.band_uncertain) << what;
}

align::FilterStats sum_stats(
    const std::vector<align::FilteredSearchResult>& results) {
  align::FilterStats total;
  for (const auto& result : results) total.merge(result.stats);
  return total;
}

struct Platform {
  const char* name;
  std::size_t cpus;
  std::size_t gpus;
  std::size_t threads;
};

const Platform kPlatforms[] = {
    {"gpu_only", 0, 2, 1},
    {"cpu_serial", 2, 0, 1},
    {"cpu_threads3", 2, 0, 3},
    {"mixed", 2, 1, 1},
};

MasterConfig filtered_config(const Platform& platform) {
  MasterConfig config;
  config.cpu_workers = platform.cpus;
  config.gpu_workers = platform.gpus;
  config.threads_per_cpu_worker = platform.threads;
  config.top_hits = kTop;
  config.filter = heuristic();
  return config;
}

class MasterFilter
    : public ::testing::TestWithParam<std::tuple<Platform, bool>> {};

TEST_P(MasterFilter, HitsAndStatsMatchSerialFilteredSearch) {
  const auto& [platform, with_cache] = GetParam();
  const Corpus corpus;
  const std::vector<align::FilteredSearchResult> want = corpus.serial();

  align::ProfileCache cache(16);
  MasterConfig config = filtered_config(platform);
  if (with_cache) config.profile_cache = &cache;
  // Twice through the same cache: the second run reads resident profiles.
  for (int run = 0; run < (with_cache ? 2 : 1); ++run) {
    const SearchReport report = run_search(corpus.queries, corpus.db, config);
    ASSERT_EQ(report.results.size(), corpus.queries.size());
    for (std::size_t q = 0; q < corpus.queries.size(); ++q) {
      const std::string what = std::string(platform.name) + " query " +
                               std::to_string(q) + " run " +
                               std::to_string(run);
      expect_same_hits(report.results[q].hits, want[q].hits, what);
      expect_same_stats(report.results[q].filter, want[q].stats, what);
    }
    expect_same_stats(report.filter, sum_stats(want),
                      std::string(platform.name) + " aggregate");
  }
  if (with_cache) {
    EXPECT_GT(cache.stats().hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Platforms, MasterFilter,
    ::testing::Combine(::testing::ValuesIn(kPlatforms), ::testing::Bool()),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param).name) +
             (std::get<1>(param_info.param) ? "_cached" : "_uncached");
    });

TEST(MasterFilterMetrics, EmittedOncePerQueryOnEveryMasterPath) {
  const Corpus corpus;
  const align::FilterStats want = sum_stats(corpus.serial());
  ASSERT_GT(want.rescans, 0u);
  ASSERT_GT(want.band_uncertain, 0u);
  ASSERT_LT(want.candidates, corpus.queries.size() * corpus.db.size());
  for (const Platform& platform : kPlatforms) {
    obs::MetricsRegistry metrics;
    MasterConfig config = filtered_config(platform);
    config.metrics = &metrics;
    run_search(corpus.queries, corpus.db, config);
    EXPECT_EQ(metrics.counter("filter_candidates"),
              static_cast<double>(want.candidates))
        << platform.name;
    EXPECT_EQ(metrics.counter("filter_rescans"),
              static_cast<double>(want.rescans))
        << platform.name;
    EXPECT_EQ(metrics.counter("filter_band_uncertain"),
              static_cast<double>(want.band_uncertain))
        << platform.name;
  }
}

TEST(MasterFilterMetrics, EmittedOncePerQueryOnTheShardedPath) {
  const Corpus corpus;
  const align::FilterStats want = sum_stats(corpus.serial());
  const align::DbView view = align::make_db_view(corpus.db);
  std::vector<std::span<const std::uint8_t>> queries;
  for (std::size_t q = 0; q < corpus.queries.size(); ++q) {
    queries.push_back(corpus.query(q));
  }
  for (std::size_t shards : {1u, 3u}) {
    obs::MetricsRegistry metrics;
    align::ShardedSearchOptions options;
    options.num_shards = shards;
    options.threads_per_shard = 2;
    options.metrics = &metrics;
    const align::ShardedSearchEngine engine(view, options);
    const auto results = engine.search_many_filtered(
        queries, align::ScoringScheme{}, align::KernelKind::kInterSeq, kTop,
        heuristic());
    align::FilterStats got;
    for (const auto& result : results) got.merge(result.filter);
    expect_same_stats(got, want, "sharded x" + std::to_string(shards));
    EXPECT_EQ(metrics.counter("filter_candidates"),
              static_cast<double>(want.candidates))
        << shards;
    EXPECT_EQ(metrics.counter("filter_rescans"),
              static_cast<double>(want.rescans))
        << shards;
  }
}

}  // namespace
}  // namespace swdual::master
