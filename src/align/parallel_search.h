// Chunked parallel database search: multithreaded intra-task scans.
//
// The master–slave engine parallelizes *across* tasks (one query vs the
// whole database per worker); this engine additionally parallelizes *inside*
// one task, the way SWIPE/CUDASW++-class tools do: the database is
// partitioned into residue-balanced chunks that fan out over a ThreadPool,
// every chunk sharing one read-only set of query profiles (including the
// lazily built 16-bit escalation profile of the striped8 tier).
//
// Results are bit-identical to the serial search_database path — same
// scores, same cells / overflow_rescans accounting — deterministically,
// regardless of thread count: chunks are merged in index order and every
// per-record value is independent of its chunk.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "align/search.h"
#include "util/thread_pool.h"

namespace swdual::obs {
class MetricsRegistry;
class Tracer;
}  // namespace swdual::obs

namespace swdual::seq {
class MappedSwdb;
}  // namespace swdual::seq

namespace swdual::align {

struct ParallelSearchOptions {
  /// Worker threads for the internal pool. 1 runs chunks inline (no pool).
  std::size_t threads = 1;

  /// Fixed chunk size in records; 0 selects residue-balanced automatic
  /// partitioning (chunks_per_thread chunks per thread). Values larger than
  /// the database collapse to a single chunk.
  std::size_t chunk_records = 0;

  /// Automatic-partition granularity: more chunks per thread smooth load
  /// imbalance from length skew at slightly higher merge cost.
  std::size_t chunks_per_thread = 4;

  /// Permute the database longest-first once at engine construction (the
  /// inverse mapping is applied at merge, so callers always see database
  /// order). Groups similar lengths into the same interseq batch so padded
  /// lanes waste fewer cells; harmless for the other kernels.
  bool sort_by_length = true;

  /// Optional observability sinks (obs/trace.h, obs/metrics.h): every chunk
  /// scan becomes a wall-clock `chunk_scan` span on `trace_track` (recorded
  /// from the pool thread that ran it) and a `chunk_scan_seconds` histogram
  /// sample. Both must outlive the engine.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  std::size_t trace_track = 0;
};

// RankedSearchResult lives in align/search.h; this header re-exports it via
// that include.

class ParallelSearchEngine {
 public:
  /// Snapshots `db` (span copies, not residues) and builds the partition
  /// once; the underlying records must outlive the engine.
  explicit ParallelSearchEngine(const DbView& db,
                                const ParallelSearchOptions& options = {});

  /// Zero-copy engine over an mmap-backed SWDB: chunk scans read residues
  /// straight out of the shared mapping (no per-engine or per-thread copy),
  /// and when options.sort_by_length is set the longest-first permutation
  /// comes from the database's precomputed lane-batch index instead of a
  /// per-engine sort — the heap-free refill path of the interseq kernel.
  /// The mapping must outlive the engine (see MappedSwdb lifetime rules).
  ParallelSearchEngine(const seq::MappedSwdb& db,
                       const ParallelSearchOptions& options = {});

  ParallelSearchEngine(const ParallelSearchEngine&) = delete;
  ParallelSearchEngine& operator=(const ParallelSearchEngine&) = delete;

  /// Score one query against the whole database. Scores are in database
  /// order and bit-identical to serial search_database, on every SIMD
  /// backend (kAuto = widest available, overridable via
  /// SWDUAL_FORCE_BACKEND).
  SearchResult search(std::span<const std::uint8_t> query,
                      const ScoringScheme& scheme, KernelKind kernel,
                      Backend backend = Backend::kAuto) const;

  /// search() plus a bounded top-k merge: each chunk keeps a k-hit heap and
  /// only those heaps are merged, so ranking costs O(n log k) total instead
  /// of sorting all n scores.
  RankedSearchResult search_ranked(std::span<const std::uint8_t> query,
                                   const ScoringScheme& scheme,
                                   KernelKind kernel, std::size_t k,
                                   Backend backend = Backend::kAuto) const;

  /// Scan with caller-provided (possibly cached/shared) profiles, skipping
  /// the per-call profile build. Bit-identical to the building overloads.
  SearchResult search(const SearchProfiles& profiles) const;
  RankedSearchResult search_ranked(const SearchProfiles& profiles,
                                   std::size_t k) const;

  /// Multi-query scan: K queries share ONE pass over every database chunk.
  /// Each chunk task scans its records once per query while the chunk's
  /// residues are hot in cache, amortizing DB decode/cache traffic across
  /// the group the way SWAPHI shares one partition pass between concurrent
  /// queries. All profile sets must use the same kernel (the serve batcher
  /// collapses per-config groups, so this holds by construction). Results
  /// are per query, in input order, and bit-identical to running
  /// search_ranked once per profile set.
  std::vector<RankedSearchResult> search_ranked_many(
      std::span<const SearchProfiles* const> profiles, std::size_t k) const;

  /// Two-stage filtered search (align/search.h): chunked banded screen,
  /// then the shared stage 2 (filter_rescore) over the gathered screen.
  /// Mode kOff is bit-identical to search_ranked; heuristic results are
  /// identical to the serial search_database_filtered path regardless of
  /// thread count or chunking. Emits filter_screen / filter_rescore spans
  /// and filter_candidates / filter_rescans / filter_band_uncertain
  /// metrics when sinks are configured.
  FilteredSearchResult search_filtered(const SearchProfiles& profiles,
                                       std::size_t k,
                                       const FilterConfig& config) const;
  FilteredSearchResult search_filtered(std::span<const std::uint8_t> query,
                                       const ScoringScheme& scheme,
                                       KernelKind kernel, std::size_t k,
                                       const FilterConfig& config,
                                       Backend backend = Backend::kAuto) const;

  /// Multi-query filtered search: the stage-1 screens share ONE pass over
  /// every chunk (like search_ranked_many's group passes), then each query
  /// runs stage 2 on its own screen. Results per query, input order.
  std::vector<FilteredSearchResult> search_filtered_many(
      std::span<const SearchProfiles* const> profiles, std::size_t k,
      const FilterConfig& config) const;

  /// Stage 1 alone, for callers that merge candidates across engines (the
  /// sharded scatter-gather path): per-query screens of the whole database,
  /// in database order, bit-identical to serial screen_range.
  std::vector<ScreenResult> screen_many(
      std::span<const SearchProfiles* const> profiles, std::size_t band) const;

  std::size_t num_chunks() const { return chunks_.size(); }
  std::size_t threads() const { return pool_ ? pool_->size() : 1; }
  std::size_t db_records() const { return db_.size(); }

 private:
  struct Chunk {
    std::size_t begin = 0;  ///< first record (permuted order)
    std::size_t end = 0;    ///< one past the last record
  };

  struct ChunkOutcome {
    SearchResult result;
    std::vector<SearchHit> hits;  ///< chunk-local top-k, original indices
  };

  ChunkOutcome run_chunk(const SearchProfiles& profiles, const Chunk& chunk,
                         std::size_t chunk_index, std::size_t top_k) const;
  RankedSearchResult run(const SearchProfiles& profiles,
                         std::size_t top_k) const;

  /// One chunk scanned once per query (outcomes in query order).
  std::vector<ChunkOutcome> run_chunk_many(
      std::span<const SearchProfiles* const> profiles, const Chunk& chunk,
      std::size_t chunk_index, std::size_t top_k) const;

  /// One chunk screened once per query with the banded stage-1 kernel.
  std::vector<ScreenResult> screen_chunk_many(
      std::span<const SearchProfiles* const> profiles, const Chunk& chunk,
      std::size_t chunk_index, std::size_t band) const;

  /// Partition db_ into chunks and spin up the pool (shared ctor tail;
  /// db_ and original_index_ must already be populated).
  void init_partition(const ParallelSearchOptions& options);

  /// chunks_ with every boundary snapped to a multiple of `batch` records,
  /// so the inter-sequence kernel never splits a SIMD batch between two
  /// chunks (a split batch runs twice with mostly-padded lanes). Scores are
  /// unaffected — lanes are independent — only padding waste is.
  std::vector<Chunk> batch_aligned_chunks(std::size_t batch) const;

  DbView db_;       ///< permuted (or original-order) span copies
  DbView ordered_;  ///< the same spans in database order (stage-2 rescans)
  std::vector<std::size_t> original_index_;  ///< permuted pos → db pos
  std::vector<Chunk> chunks_;
  std::unique_ptr<ThreadPool> pool_;  ///< null when options.threads <= 1
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::size_t trace_track_ = 0;
};

}  // namespace swdual::align
