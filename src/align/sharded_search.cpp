#include "align/sharded_search.h"

#include <algorithm>
#include <exception>
#include <future>
#include <numeric>
#include <type_traits>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "seq/swdb.h"
#include "util/error.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace swdual::align {

double ShardPlan::imbalance() const {
  if (shards.empty()) return 0.0;
  std::uint64_t max_load = 0;
  std::uint64_t sum = 0;
  for (const Shard& shard : shards) {
    max_load = std::max(max_load, shard.residues);
    sum += shard.residues;
  }
  if (sum == 0) return 0.0;
  const double mean =
      static_cast<double>(sum) / static_cast<double>(shards.size());
  return static_cast<double>(max_load) / mean - 1.0;
}

ShardPlan plan_shards(std::span<const std::uint32_t> lengths,
                      std::size_t num_shards) {
  ShardPlan plan;
  const std::size_t n = lengths.size();
  if (n == 0) return plan;
  num_shards = std::clamp<std::size_t>(num_shards, 1, n);
  plan.shards.resize(num_shards);

  // Longest-first visit order (ties by record id — the same tie-break the
  // SWDB lane-batch index uses, so shard record lists line up with the
  // inter-sequence kernel's preferred batching).
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&lengths](std::uint32_t a, std::uint32_t b) {
                     return lengths[a] > lengths[b];
                   });

  for (const std::uint32_t id : order) {
    // Lightest shard so far, ties to the lowest index: deterministic LPT.
    std::size_t best = 0;
    for (std::size_t s = 1; s < num_shards; ++s) {
      if (plan.shards[s].residues < plan.shards[best].residues) best = s;
    }
    const std::uint64_t cost = std::max<std::uint64_t>(lengths[id], 1);
    plan.shards[best].records.push_back(id);
    plan.shards[best].residues += cost;
    plan.total_residues += cost;
  }
  // Record lists in ascending database order: a shard's local record order
  // then agrees with global order, so per-shard top-k heaps break score
  // ties exactly the way the unsharded search does (smallest database index
  // wins) — the invariant the scatter-gather merge depends on.
  for (ShardPlan::Shard& shard : plan.shards) {
    std::sort(shard.records.begin(), shard.records.end());
  }
  return plan;
}

ShardPlan plan_shards(const DbView& db, std::size_t num_shards) {
  std::vector<std::uint32_t> lengths;
  lengths.reserve(db.size());
  for (const auto& record : db) {
    lengths.push_back(static_cast<std::uint32_t>(record.size()));
  }
  return plan_shards(lengths, num_shards);
}

struct ShardedSearchEngine::ShardState {
  DbView view;  ///< shard records, longest-first (spans into shared storage)
  std::unique_ptr<ParallelSearchEngine> engine;
  std::unique_ptr<ProfileCache> profiles;
};

namespace {

/// Scatter shard-local per-record values back to database order.
template <typename V>
void scatter_records(const std::vector<std::uint32_t>& records,
                     const std::vector<V>& local, std::vector<V>& global) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    global[records[i]] = local[i];
  }
}

}  // namespace

ShardedSearchEngine::ShardedSearchEngine(const DbView& db,
                                         const ShardedSearchOptions& options)
    : options_(options) {
  plan_ = plan_shards(db, options_.num_shards);
  init(db);
}

ShardedSearchEngine::ShardedSearchEngine(
    std::shared_ptr<const seq::MappedSwdb> db,
    const ShardedSearchOptions& options)
    : options_(options), mapped_(std::move(db)) {
  SWDUAL_REQUIRE(mapped_ != nullptr, "mapped database must not be null");
  plan_ = plan_shards(mapped_->lengths(), options_.num_shards);
  init(mapped_->residue_views());
}

ShardedSearchEngine::~ShardedSearchEngine() = default;

void ShardedSearchEngine::init(const DbView& db) {
  db_records_ = db.size();
  global_view_ = db;  // span copies; the filtered gather rescans through it
  shards_.reserve(plan_.shards.size());
  for (const ShardPlan::Shard& shard_plan : plan_.shards) {
    auto state = std::make_unique<ShardState>();
    state->view.reserve(shard_plan.records.size());
    for (const std::uint32_t id : shard_plan.records) {
      state->view.push_back(db[id]);
    }
    ParallelSearchOptions engine_options;
    engine_options.threads = std::max<std::size_t>(1, options_.threads_per_shard);
    // The shard view is in ascending database order (the merge-discipline
    // invariant); the engine re-sorts longest-first internally for the
    // inter-sequence lane batches and inverse-permutes results back.
    engine_options.sort_by_length = true;
    engine_options.tracer = options_.tracer;
    engine_options.metrics = options_.metrics;
    engine_options.trace_track = options_.trace_track;
    state->engine =
        std::make_unique<ParallelSearchEngine>(state->view, engine_options);
    state->profiles =
        std::make_unique<ProfileCache>(options_.profile_cache_capacity);
    shards_.push_back(std::move(state));
  }
  if (options_.parallel_scatter && shards_.size() > 1) {
    scatter_pool_ = std::make_unique<ThreadPool>(shards_.size());
  }
}

template <typename T>
ShardedSearchEngine::ShardOutcome<T> ShardedSearchEngine::attempt_shard(
    std::size_t shard_index,
    std::span<const std::span<const std::uint8_t>> queries,
    const ScoringScheme& scheme, KernelKind kernel, Backend backend,
    const ShardScan<T>& primary, const ShardScan<T>& recovery) const {
  const ShardState& shard = *shards_[shard_index];
  ShardOutcome<T> outcome;

  // Build (or fetch) the K profile sets once for the whole group pass, from
  // this shard's private cache — the "build K profiles once, scan the chunk
  // once per query" half of the multi-query amortization.
  std::vector<std::shared_ptr<const CachedProfiles>> cached;
  std::vector<const SearchProfiles*> profiles;
  cached.reserve(queries.size());
  profiles.reserve(queries.size());
  for (const auto& query : queries) {
    cached.push_back(shard.profiles->acquire(query, scheme, kernel, backend));
    profiles.push_back(&cached.back()->profiles());
  }

  for (std::size_t attempt = 0; attempt <= options_.max_shard_retries;
       ++attempt) {
    ++outcome.attempts;
    obs::Span span;
    if (options_.tracer) {
      span = options_.tracer->span("shard_scan", "shard",
                                   options_.trace_track);
      span.arg("shard", static_cast<double>(shard_index));
      span.arg("attempt", static_cast<double>(attempt));
      span.arg("records", static_cast<double>(shard.view.size()));
      span.arg("queries", static_cast<double>(queries.size()));
      if constexpr (std::is_same_v<T, ScreenResult>) span.arg("screen", 1.0);
    }
    WallTimer timer;
    try {
      if (options_.before_shard) options_.before_shard(shard_index, attempt);
      outcome.per_query = attempt == 0 ? primary(shard, profiles)
                                       : recovery(shard, profiles);
      outcome.ok = true;
    } catch (const std::exception& error) {
      outcome.reason = error.what();
    } catch (...) {
      outcome.reason = "unknown shard failure";
    }
    if (options_.metrics) {
      if (outcome.ok) {
        options_.metrics->add("serve_shard_scans");
        options_.metrics->observe("serve_shard_scan_seconds",
                                  timer.seconds());
      } else if (attempt < options_.max_shard_retries) {
        options_.metrics->add("serve_shard_retries");
      } else {
        options_.metrics->add("serve_shard_failures");
      }
    }
    {
      util::MutexLock lock(stats_mutex_);
      if (outcome.ok) {
        ++stats_.scans;
      } else if (attempt < options_.max_shard_retries) {
        ++stats_.retries;
      } else {
        ++stats_.failures;
      }
    }
    if (outcome.ok) break;
  }
  return outcome;
}

template <typename T>
std::vector<ShardedSearchEngine::ShardOutcome<T>> ShardedSearchEngine::scatter(
    std::span<const std::span<const std::uint8_t>> queries,
    const ScoringScheme& scheme, KernelKind kernel, Backend backend,
    const ShardScan<T>& primary, const ShardScan<T>& recovery) const {
  {
    util::MutexLock lock(stats_mutex_);
    ++stats_.group_passes;
  }
  if (options_.metrics) {
    options_.metrics->add("serve_shard_group_passes");
    options_.metrics->observe("serve_shard_group_queries",
                              static_cast<double>(queries.size()));
  }
  std::vector<ShardOutcome<T>> outcomes(shards_.size());
  if (scatter_pool_) {
    std::vector<std::future<ShardOutcome<T>>> futures;
    futures.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      futures.push_back(scatter_pool_->submit(
          [this, s, queries, &scheme, kernel, backend, &primary, &recovery] {
            return attempt_shard(s, queries, scheme, kernel, backend, primary,
                                 recovery);
          }));
    }
    for (std::size_t s = 0; s < futures.size(); ++s) {
      outcomes[s] = futures[s].get();
    }
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      outcomes[s] =
          attempt_shard(s, queries, scheme, kernel, backend, primary, recovery);
    }
  }
  return outcomes;
}

template <typename T, typename Take>
void ShardedSearchEngine::gather(const std::vector<ShardOutcome<T>>& outcomes,
                                 std::vector<ShardedSearchResult>& results,
                                 const Take& take) const {
  for (std::size_t s = 0; s < outcomes.size(); ++s) {
    const ShardOutcome<T>& outcome = outcomes[s];
    if (!outcome.ok) {
      for (ShardedSearchResult& result : results) {
        result.complete = false;
        result.failures.push_back({s, outcome.attempts, outcome.reason});
      }
      continue;
    }
    for (std::size_t q = 0; q < results.size(); ++q) {
      take(q, plan_.shards[s].records, outcome.per_query[q]);
    }
  }
}

std::vector<ShardedSearchResult> ShardedSearchEngine::search_many(
    std::span<const std::span<const std::uint8_t>> queries,
    const ScoringScheme& scheme, KernelKind kernel, std::size_t k,
    Backend backend) const {
  std::vector<ShardedSearchResult> results(queries.size());
  if (queries.empty()) return results;
  for (const auto& query : queries) {
    SWDUAL_REQUIRE(!query.empty(), "cannot search with an empty query");
  }
  // Resolve once so every shard stripes its profiles for the same backend
  // (and their caches share entries across group passes).
  const Backend resolved = resolve_backend(backend, kernel);

  const ShardScan<RankedSearchResult> primary =
      [k](const ShardState& shard,
          std::span<const SearchProfiles* const> profiles) {
        return shard.engine->search_ranked_many(profiles, k);
      };
  const ShardScan<RankedSearchResult> recovery =
      [k](const ShardState& shard,
          std::span<const SearchProfiles* const> profiles) {
        // Direct serial scan over the shard view, independent of the
        // shard's engine and pool. Same results by construction.
        std::vector<RankedSearchResult> ranked(profiles.size());
        for (std::size_t q = 0; q < profiles.size(); ++q) {
          ranked[q].result =
              search_range(*profiles[q], shard.view, 0, shard.view.size());
          ranked[q].hits = ranked[q].result.top(k);
        }
        return ranked;
      };
  const auto outcomes =
      scatter(queries, scheme, kernel, resolved, primary, recovery);

  // Gather: scatter shard-local scores back to database order and merge the
  // per-shard top-k heaps in shard order. Shard-local hit indices become
  // global database indices through the plan's record list, and ties
  // resolve by global index, so the ranking matches the unsharded search.
  for (ShardedSearchResult& result : results) {
    result.ranked.result.scores.assign(db_records_, 0);
  }
  gather(outcomes, results,
         [&results, k](std::size_t q, const std::vector<std::uint32_t>& records,
                       const RankedSearchResult& shard_ranked) {
           SearchResult& merged = results[q].ranked.result;
           scatter_records(records, shard_ranked.result.scores, merged.scores);
           merged.cells += shard_ranked.result.cells;
           merged.overflow_rescans += shard_ranked.result.overflow_rescans;
           for (const SearchHit& hit : shard_ranked.hits) {
             push_top_hit(results[q].ranked.hits,
                          {records[hit.db_index], hit.score}, k);
           }
         });
  for (ShardedSearchResult& result : results) {
    finish_top_hits(result.ranked.hits);
  }
  return results;
}

std::vector<ShardedSearchResult> ShardedSearchEngine::search_many_filtered(
    std::span<const std::span<const std::uint8_t>> queries,
    const ScoringScheme& scheme, KernelKind kernel, std::size_t k,
    const FilterConfig& config, Backend backend) const {
  config.validate();
  if (!config.enabled()) {
    return search_many(queries, scheme, kernel, k, backend);
  }
  std::vector<ShardedSearchResult> results(queries.size());
  if (queries.empty()) return results;
  for (const auto& query : queries) {
    SWDUAL_REQUIRE(!query.empty(), "cannot search with an empty query");
  }
  const Backend resolved = resolve_backend(backend, kernel);
  const std::size_t band = config.band;

  const ShardScan<ScreenResult> primary =
      [band](const ShardState& shard,
             std::span<const SearchProfiles* const> profiles) {
        return shard.engine->screen_many(profiles, band);
      };
  const ShardScan<ScreenResult> recovery =
      [band](const ShardState& shard,
             std::span<const SearchProfiles* const> profiles) {
        std::vector<ScreenResult> screens(profiles.size());
        for (std::size_t q = 0; q < profiles.size(); ++q) {
          screens[q] = screen_range(*profiles[q], shard.view, 0,
                                    shard.view.size(), band);
        }
        return screens;
      };
  const auto outcomes =
      scatter(queries, scheme, kernel, resolved, primary, recovery);

  // Gather the screens to database order. Records of failed shards keep
  // score 0 with the exact certificate set, so they are never rescanned,
  // and the eligibility mask keeps them out of the top-k — the same
  // partial-result semantics as search_many.
  std::vector<ScreenResult> screens(queries.size());
  for (ScreenResult& screen : screens) {
    screen.scores.assign(db_records_, 0);
    screen.exact.assign(db_records_, 1);
    screen.edge_hit.assign(db_records_, 0);
  }
  gather(outcomes, results,
         [&screens](std::size_t q, const std::vector<std::uint32_t>& records,
                    const ScreenResult& shard_screen) {
           ScreenResult& screen = screens[q];
           scatter_records(records, shard_screen.scores, screen.scores);
           scatter_records(records, shard_screen.exact, screen.exact);
           scatter_records(records, shard_screen.edge_hit, screen.edge_hit);
           screen.cells += shard_screen.cells;
         });
  std::vector<std::uint8_t> scanned;  // built only when a shard failed
  for (const ShardFailure& failure : results.front().failures) {
    if (scanned.empty()) scanned.assign(db_records_, 1);
    for (const std::uint32_t id : plan_.shards[failure.shard].records) {
      scanned[id] = 0;
    }
  }

  // Stage 2 on the gather thread: the candidate set is a pure function of
  // the merged screens, so results are identical for every shard topology.
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const SearchProfiles profiles(queries[q], scheme, kernel, resolved);
    FilteredSearchResult out = filter_rescore(
        std::move(screens[q]), global_view_, k, config,
        exact_rescan(profiles), scanned, options_.tracer, options_.metrics,
        options_.trace_track);
    ShardedSearchResult& result = results[q];
    result.ranked.result = std::move(out.result);
    result.ranked.hits = std::move(out.hits);
    result.filtered = true;
    result.filter = out.stats;
  }
  return results;
}

ShardedSearchResult ShardedSearchEngine::search_ranked(
    std::span<const std::uint8_t> query, const ScoringScheme& scheme,
    KernelKind kernel, std::size_t k, Backend backend) const {
  const std::span<const std::uint8_t> queries[] = {query};
  return std::move(search_many(queries, scheme, kernel, k, backend).front());
}

ShardedSearchEngine::Stats ShardedSearchEngine::stats() const {
  util::MutexLock lock(stats_mutex_);
  return stats_;
}

}  // namespace swdual::align
