// Sharded scatter-gather database search: the serve-layer scale-out engine.
//
// One monolithic database search caps out at one machine's worth of
// threads. This engine splits the database into N residue-balanced shards —
// zero-copy views into one shared buffer or mmap-backed SWDB, never copies —
// and runs an independent ParallelSearchEngine (with its own ProfileCache,
// simulating one worker node each) per shard. A search scatters over the
// shards, each shard scan keeps a local top-k heap, and the gather step
// merges the per-shard heaps with the same inverse-permutation discipline
// the chunked engine uses, so results are bit-identical to the unsharded
// search for every kernel, backend, thread count, and shard count.
//
// Multi-query groups: search_many() takes K concurrent queries and shares
// ONE pass over every shard chunk between them (profiles built once per
// shard via its cache, the chunk scanned once per query while hot), the way
// SWAPHI amortizes one database partition pass across concurrent queries.
//
// Failure semantics: an optional before_shard hook (mirroring the serve
// layer's before_batch) is invoked ahead of every shard-scan attempt; a
// throwing attempt is retried up to max_shard_retries times on the recovery
// path — a direct serial scan on the gather thread, independent of the
// shard's own engine/pool — and a shard that exhausts its budget is
// reported in ShardedSearchResult::failures with a reason while the
// remaining shards' results are still returned (partial results, scores of
// unscanned records read 0 and never enter the merged top-k).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "align/parallel_search.h"
#include "align/profile_cache.h"
#include "align/search.h"
#include "util/mutex.h"

namespace swdual::obs {
class MetricsRegistry;
class Tracer;
}  // namespace swdual::obs

namespace swdual::seq {
class MappedSwdb;
}  // namespace swdual::seq

namespace swdual::align {

/// Residue-balanced shard assignment: which database records each shard
/// scans. Assignment is greedy longest-processing-time (records visited
/// longest-first, each placed on the currently lightest shard, ties to the
/// lowest shard index); each shard's record list is then stored in
/// ascending database order so shard-local rank ties resolve exactly like
/// global ones (the per-shard engine re-sorts longest-first internally for
/// the inter-sequence kernel and inverse-permutes back). Deterministic for
/// a given (lengths, shard count).
struct ShardPlan {
  struct Shard {
    std::vector<std::uint32_t> records;  ///< db indices, ascending
    std::uint64_t residues = 0;          ///< load (empty records count as 1)
  };

  std::vector<Shard> shards;
  std::uint64_t total_residues = 0;

  /// Relative load imbalance: max shard load / mean shard load − 1.
  /// 0 means perfectly balanced; the planner keeps this small whenever no
  /// single record exceeds a shard's fair share.
  double imbalance() const;
};

/// Plan `num_shards` shards over records with the given residue lengths.
/// num_shards is clamped to [1, record count]; an empty database yields a
/// plan with zero shards.
ShardPlan plan_shards(std::span<const std::uint32_t> lengths,
                      std::size_t num_shards);
ShardPlan plan_shards(const DbView& db, std::size_t num_shards);

struct ShardedSearchOptions {
  std::size_t num_shards = 1;

  /// Intra-shard scan threads (each shard's ParallelSearchEngine pool).
  std::size_t threads_per_shard = 1;

  /// Scatter shard scans across a pool of one thread per shard; false runs
  /// them sequentially on the calling thread (identical results).
  bool parallel_scatter = true;

  /// Capacity of each shard's private ProfileCache.
  std::size_t profile_cache_capacity = 32;

  /// Recovery attempts after a shard scan throws. Each retry runs the
  /// shard's records through the direct serial scan path on the gather
  /// thread (a healthy engine independent of the shard's pool); a shard
  /// that fails 1 + max_shard_retries times is reported as failed.
  std::size_t max_shard_retries = 1;

  /// Test hook mirroring serve's before_batch: invoked with (shard index,
  /// attempt) before every scan attempt, including recovery attempts. A
  /// throw from the hook is treated as that attempt failing. nullptr in
  /// production.
  std::function<void(std::size_t shard, std::size_t attempt)> before_shard;

  /// Optional observability sinks: every shard attempt becomes a
  /// `shard_scan` span on `trace_track` and feeds the `serve_shard_*`
  /// counters/histograms. Both must outlive the engine.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  std::size_t trace_track = 0;
};

/// One shard that exhausted its retry budget during a search.
struct ShardFailure {
  std::size_t shard = 0;
  std::size_t attempts = 0;  ///< scan attempts made (1 + retries)
  std::string reason;        ///< what() of the last failure
};

/// Result of one query of a sharded search.
struct ShardedSearchResult {
  RankedSearchResult ranked;  ///< database-order scores + global top-k

  /// True when every shard was scanned: ranked is then bit-identical to the
  /// unsharded search. False = partial results; records of the shards in
  /// `failures` were not scanned (their scores read 0 and they are absent
  /// from the top-k).
  bool complete = true;
  std::vector<ShardFailure> failures;

  /// Set by search_many_filtered in heuristic mode; `filter` then carries
  /// the query's candidate/rescan counters.
  bool filtered = false;
  FilterStats filter;
};

class ShardedSearchEngine {
 public:
  /// Shards over record views (spans are copied, viewed residues must
  /// outlive the engine).
  ShardedSearchEngine(const DbView& db, const ShardedSearchOptions& options);

  /// Zero-copy shards straight into an mmap-backed SWDB: every shard's view
  /// points into the one shared mapping, which the engine keeps alive.
  ShardedSearchEngine(std::shared_ptr<const seq::MappedSwdb> db,
                      const ShardedSearchOptions& options);

  ~ShardedSearchEngine();

  ShardedSearchEngine(const ShardedSearchEngine&) = delete;
  ShardedSearchEngine& operator=(const ShardedSearchEngine&) = delete;

  /// Scatter-gather search of one query. Bit-identical to the unsharded
  /// search_database / ParallelSearchEngine result when complete.
  ShardedSearchResult search_ranked(std::span<const std::uint8_t> query,
                                    const ScoringScheme& scheme,
                                    KernelKind kernel, std::size_t k,
                                    Backend backend = Backend::kAuto) const;

  /// Multi-query group: all queries share one pass over each shard chunk.
  /// Results are per query, in input order; a shard failure applies to the
  /// whole group (the pass is shared), so every result reports the same
  /// failures.
  std::vector<ShardedSearchResult> search_many(
      std::span<const std::span<const std::uint8_t>> queries,
      const ScoringScheme& scheme, KernelKind kernel, std::size_t k,
      Backend backend = Backend::kAuto) const;

  /// Two-stage filtered group search. Every shard screens the group with
  /// the banded stage-1 kernel (one shared pass per shard chunk, same
  /// scatter/retry discipline as search_many); the screens are gathered to
  /// database order and each query runs the shared stage 2
  /// (filter_rescore) on the gather thread, so candidates are selected
  /// GLOBALLY and heuristic results are identical for every shard count,
  /// thread count, and backend. Mode kOff delegates to search_many
  /// (bit-identical to the unsharded search).
  std::vector<ShardedSearchResult> search_many_filtered(
      std::span<const std::span<const std::uint8_t>> queries,
      const ScoringScheme& scheme, KernelKind kernel, std::size_t k,
      const FilterConfig& config, Backend backend = Backend::kAuto) const;

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t db_records() const { return db_records_; }
  const ShardPlan& plan() const { return plan_; }

  struct Stats {
    std::uint64_t scans = 0;      ///< successful shard-scan attempts
    std::uint64_t retries = 0;    ///< recovery attempts after a failure
    std::uint64_t failures = 0;   ///< shards that exhausted their budget
    std::uint64_t group_passes = 0;  ///< search_many / search_ranked calls
  };
  Stats stats() const;

 private:
  struct ShardState;

  /// Per-query results of one shard in shard-local record order, plus the
  /// fate of its attempts.
  template <typename T>
  struct ShardOutcome {
    std::vector<T> per_query;
    bool ok = false;
    std::size_t attempts = 0;
    std::string reason;
  };

  /// A shard scan: per-query results over one shard's records.
  template <typename T>
  using ShardScan = std::function<std::vector<T>(
      const ShardState&, std::span<const SearchProfiles* const>)>;

  void init(const DbView& db);

  /// One group pass: counts it, then runs every shard's attempt loop
  /// (attempt_shard) across the scatter pool. Outcomes in shard order.
  template <typename T>
  std::vector<ShardOutcome<T>> scatter(
      std::span<const std::span<const std::uint8_t>> queries,
      const ScoringScheme& scheme, KernelKind kernel, Backend backend,
      const ShardScan<T>& primary, const ShardScan<T>& recovery) const;

  /// The shard's K profile sets come from its private cache once for every
  /// attempt; attempt 0 runs `primary` (the shard's engine and pool), each
  /// of the max_shard_retries retries runs `recovery` (a serial scan of the
  /// shard view on the calling thread). Every attempt gets a shard_scan span
  /// and feeds the serve_shard_* metrics and Stats.
  template <typename T>
  ShardOutcome<T> attempt_shard(
      std::size_t shard_index,
      std::span<const std::span<const std::uint8_t>> queries,
      const ScoringScheme& scheme, KernelKind kernel, Backend backend,
      const ShardScan<T>& primary, const ShardScan<T>& recovery) const;

  /// Gather: failed shards are recorded on every result; each successful
  /// shard's per-query output is handed to `take(query, records, output)`
  /// with the shard's database indices for the scatter to database order.
  template <typename T, typename Take>
  void gather(const std::vector<ShardOutcome<T>>& outcomes,
              std::vector<ShardedSearchResult>& results,
              const Take& take) const;

  ShardedSearchOptions options_;
  ShardPlan plan_;
  std::size_t db_records_ = 0;
  DbView global_view_;  ///< database-order spans, for candidate rescans
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::shared_ptr<const seq::MappedSwdb> mapped_;  ///< keeps mapping alive
  std::unique_ptr<ThreadPool> scatter_pool_;       ///< null when serial

  /// Leaf capability: only the Stats aggregate lives under it, and no other
  /// lock is ever acquired while it is held (shard scans update it between
  /// engine passes, never inside one).
  mutable util::Mutex stats_mutex_;
  mutable Stats stats_ SWDUAL_GUARDED_BY(stats_mutex_);
};

}  // namespace swdual::align
