#include "align/parallel_search.h"

#include <algorithm>
#include <future>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "seq/swdb.h"
#include "util/error.h"
#include "util/timer.h"

namespace swdual::align {

namespace {

/// Residue-balanced contiguous partition: cut after the record whose
/// cumulative residue count crosses the next multiple of total/num_chunks.
/// Every chunk gets at least one record; empty records count as cost 1 so a
/// database of empty sequences still splits. Requires a non-empty db.
std::vector<std::pair<std::size_t, std::size_t>> balanced_cuts(
    const DbView& db, std::size_t num_chunks) {
  const std::size_t n = db.size();
  num_chunks = std::clamp<std::size_t>(num_chunks, 1, n);
  std::vector<std::uint64_t> prefix(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + std::max<std::uint64_t>(db[i].size(), 1);
  }
  std::vector<std::pair<std::size_t, std::size_t>> cuts;
  cuts.reserve(num_chunks);
  std::size_t begin = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::uint64_t target = prefix[n] * (c + 1) / num_chunks;
    std::size_t end = begin + 1;
    while (end < n && prefix[end] < target) ++end;
    // Leave one record for each remaining chunk.
    end = std::min(end, n - (num_chunks - 1 - c));
    end = std::max(end, begin + 1);
    cuts.emplace_back(begin, end);
    begin = end;
  }
  cuts.back().second = n;
  return cuts;
}

}  // namespace

ParallelSearchEngine::ParallelSearchEngine(const DbView& db,
                                           const ParallelSearchOptions& options)
    : db_(db),
      tracer_(options.tracer),
      metrics_(options.metrics),
      trace_track_(options.trace_track) {
  original_index_.resize(db_.size());
  std::iota(original_index_.begin(), original_index_.end(), 0);
  if (options.sort_by_length) {
    std::stable_sort(original_index_.begin(), original_index_.end(),
                     [&db](std::size_t a, std::size_t b) {
                       return db[a].size() > db[b].size();
                     });
    for (std::size_t p = 0; p < db_.size(); ++p) {
      db_[p] = db[original_index_[p]];
    }
  }
  init_partition(options);
}

ParallelSearchEngine::ParallelSearchEngine(const seq::MappedSwdb& db,
                                           const ParallelSearchOptions& options)
    : tracer_(options.tracer),
      metrics_(options.metrics),
      trace_track_(options.trace_track) {
  // Same longest-first permutation the DbView ctor computes, but read from
  // the database's lane-batch index (identical tie-breaking by record id),
  // and every span points into the shared mapping — no copies, no sort.
  original_index_.reserve(db.size());
  db_.reserve(db.size());
  if (options.sort_by_length) {
    for (const std::uint32_t id : db.lane_order()) {
      original_index_.push_back(id);
      db_.push_back(db.residues(id));
    }
  } else {
    for (std::size_t i = 0; i < db.size(); ++i) {
      original_index_.push_back(i);
      db_.push_back(db.residues(i));
    }
  }
  init_partition(options);
}

void ParallelSearchEngine::init_partition(
    const ParallelSearchOptions& options) {
  ordered_.resize(db_.size());
  for (std::size_t p = 0; p < db_.size(); ++p) {
    ordered_[original_index_[p]] = db_[p];
  }
  const std::size_t threads = std::max<std::size_t>(1, options.threads);
  std::size_t num_chunks;
  if (options.chunk_records > 0) {
    num_chunks =
        (db_.size() + options.chunk_records - 1) / options.chunk_records;
  } else {
    num_chunks = threads * std::max<std::size_t>(1, options.chunks_per_thread);
  }
  if (!db_.empty()) {
    if (options.chunk_records > 0) {
      // Fixed record-count chunks, as requested.
      for (std::size_t begin = 0; begin < db_.size();
           begin += options.chunk_records) {
        chunks_.push_back(
            {begin, std::min(begin + options.chunk_records, db_.size())});
      }
    } else {
      for (const auto& [begin, end] : balanced_cuts(db_, num_chunks)) {
        chunks_.push_back({begin, end});
      }
    }
  }
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

ParallelSearchEngine::ChunkOutcome ParallelSearchEngine::run_chunk(
    const SearchProfiles& profiles, const Chunk& chunk,
    std::size_t chunk_index, std::size_t top_k) const {
  obs::Span span;
  if (tracer_) {
    span = tracer_->span("chunk_scan", "align", trace_track_);
    span.arg("chunk", static_cast<double>(chunk_index));
    span.arg("records", static_cast<double>(chunk.end - chunk.begin));
  }
  WallTimer timer;
  ChunkOutcome outcome;
  outcome.result = search_range(profiles, db_, chunk.begin, chunk.end);
  span.arg("cells", static_cast<double>(outcome.result.cells));
  if (metrics_) metrics_->observe("chunk_scan_seconds", timer.seconds());
  if (top_k > 0) {
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      push_top_hit(outcome.hits,
                   {original_index_[i], outcome.result.scores[i - chunk.begin]},
                   top_k);
    }
  }
  return outcome;
}

std::vector<ParallelSearchEngine::Chunk>
ParallelSearchEngine::batch_aligned_chunks(std::size_t batch) const {
  if (batch <= 1 || chunks_.size() <= 1) return chunks_;
  const std::size_t n = db_.size();
  std::vector<Chunk> out;
  out.reserve(chunks_.size());
  std::size_t begin = 0;
  for (std::size_t c = 0; c + 1 < chunks_.size(); ++c) {
    // Snap each cut to the nearest batch multiple; a cut swallowed by its
    // predecessor simply merges the two chunks.
    const std::size_t end =
        std::min(n, (chunks_[c].end + batch / 2) / batch * batch);
    if (end <= begin) continue;
    out.push_back({begin, end});
    begin = end;
  }
  if (begin < n) out.push_back({begin, n});
  return out;
}

RankedSearchResult ParallelSearchEngine::run(const SearchProfiles& profiles,
                                             std::size_t top_k) const {
  WallTimer timer;

  // The inter-sequence kernel processes the (length-sorted) records in
  // groups of one SIMD batch; keep chunk boundaries on batch multiples so
  // no batch is split mid-vector across two chunks.
  const std::vector<Chunk> chunks =
      profiles.kernel() == KernelKind::kInterSeq
          ? batch_aligned_chunks(backend_lanes16(profiles.backend()))
          : chunks_;

  std::vector<ChunkOutcome> outcomes(chunks.size());
  if (pool_) {
    std::vector<std::future<ChunkOutcome>> futures;
    futures.reserve(chunks.size());
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      const Chunk chunk = chunks[c];
      futures.push_back(pool_->submit([this, &profiles, chunk, c, top_k] {
        return run_chunk(profiles, chunk, c, top_k);
      }));
    }
    for (std::size_t c = 0; c < futures.size(); ++c) {
      outcomes[c] = futures[c].get();
    }
  } else {
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      outcomes[c] = run_chunk(profiles, chunks[c], c, top_k);
    }
  }

  // Deterministic merge: chunks reduced in index order, scores scattered
  // through the inverse permutation back to database order.
  RankedSearchResult ranked;
  SearchResult& merged = ranked.result;
  merged.scores.assign(db_.size(), 0);
  for (std::size_t c = 0; c < outcomes.size(); ++c) {
    const Chunk& chunk = chunks[c];
    const SearchResult& r = outcomes[c].result;
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      merged.scores[original_index_[i]] = r.scores[i - chunk.begin];
    }
    merged.cells += r.cells;
    merged.overflow_rescans += r.overflow_rescans;
    for (const SearchHit& hit : outcomes[c].hits) {
      push_top_hit(ranked.hits, hit, top_k);
    }
  }
  finish_top_hits(ranked.hits);
  merged.seconds = timer.seconds();
  return ranked;
}

std::vector<ParallelSearchEngine::ChunkOutcome>
ParallelSearchEngine::run_chunk_many(
    std::span<const SearchProfiles* const> profiles, const Chunk& chunk,
    std::size_t chunk_index, std::size_t top_k) const {
  obs::Span span;
  if (tracer_) {
    span = tracer_->span("chunk_scan_group", "align", trace_track_);
    span.arg("chunk", static_cast<double>(chunk_index));
    span.arg("records", static_cast<double>(chunk.end - chunk.begin));
    span.arg("queries", static_cast<double>(profiles.size()));
  }
  WallTimer timer;
  std::vector<ChunkOutcome> outcomes(profiles.size());
  for (std::size_t q = 0; q < profiles.size(); ++q) {
    ChunkOutcome& outcome = outcomes[q];
    outcome.result = search_range(*profiles[q], db_, chunk.begin, chunk.end);
    if (top_k > 0) {
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        push_top_hit(
            outcome.hits,
            {original_index_[i], outcome.result.scores[i - chunk.begin]},
            top_k);
      }
    }
  }
  if (metrics_) metrics_->observe("chunk_scan_seconds", timer.seconds());
  return outcomes;
}

std::vector<RankedSearchResult> ParallelSearchEngine::search_ranked_many(
    std::span<const SearchProfiles* const> profiles, std::size_t top_k) const {
  std::vector<RankedSearchResult> results(profiles.size());
  if (profiles.empty()) return results;
  for (const SearchProfiles* p : profiles) {
    SWDUAL_REQUIRE(p != nullptr, "null profile set in multi-query group");
    SWDUAL_REQUIRE(p->kernel() == profiles[0]->kernel(),
                   "multi-query groups must share one kernel");
  }
  WallTimer timer;

  const std::vector<Chunk> chunks =
      profiles[0]->kernel() == KernelKind::kInterSeq
          ? batch_aligned_chunks(backend_lanes16(profiles[0]->backend()))
          : chunks_;

  // chunk-major outcomes: per_chunk[c][q] is chunk c scanned with query q.
  std::vector<std::vector<ChunkOutcome>> per_chunk(chunks.size());
  if (pool_) {
    std::vector<std::future<std::vector<ChunkOutcome>>> futures;
    futures.reserve(chunks.size());
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      const Chunk chunk = chunks[c];
      futures.push_back(pool_->submit([this, profiles, chunk, c, top_k] {
        return run_chunk_many(profiles, chunk, c, top_k);
      }));
    }
    for (std::size_t c = 0; c < futures.size(); ++c) {
      per_chunk[c] = futures[c].get();
    }
  } else {
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      per_chunk[c] = run_chunk_many(profiles, chunks[c], c, top_k);
    }
  }

  // Same deterministic index-order merge as run(), once per query.
  const double elapsed = timer.seconds();
  for (std::size_t q = 0; q < profiles.size(); ++q) {
    RankedSearchResult& ranked = results[q];
    SearchResult& merged = ranked.result;
    merged.scores.assign(db_.size(), 0);
    for (std::size_t c = 0; c < per_chunk.size(); ++c) {
      const Chunk& chunk = chunks[c];
      const SearchResult& r = per_chunk[c][q].result;
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        merged.scores[original_index_[i]] = r.scores[i - chunk.begin];
      }
      merged.cells += r.cells;
      merged.overflow_rescans += r.overflow_rescans;
      for (const SearchHit& hit : per_chunk[c][q].hits) {
        push_top_hit(ranked.hits, hit, top_k);
      }
    }
    finish_top_hits(ranked.hits);
    merged.seconds = elapsed;
  }
  return results;
}

std::vector<ScreenResult> ParallelSearchEngine::screen_chunk_many(
    std::span<const SearchProfiles* const> profiles, const Chunk& chunk,
    std::size_t chunk_index, std::size_t band) const {
  obs::Span span;
  if (tracer_) {
    span = tracer_->span("filter_screen", "align", trace_track_);
    span.arg("chunk", static_cast<double>(chunk_index));
    span.arg("records", static_cast<double>(chunk.end - chunk.begin));
    span.arg("queries", static_cast<double>(profiles.size()));
  }
  WallTimer timer;
  std::vector<ScreenResult> screens(profiles.size());
  for (std::size_t q = 0; q < profiles.size(); ++q) {
    screens[q] = screen_range(*profiles[q], db_, chunk.begin, chunk.end, band);
  }
  if (metrics_) metrics_->observe("chunk_scan_seconds", timer.seconds());
  return screens;
}

std::vector<ScreenResult> ParallelSearchEngine::screen_many(
    std::span<const SearchProfiles* const> profiles, std::size_t band) const {
  std::vector<ScreenResult> merged(profiles.size());
  for (const SearchProfiles* p : profiles) {
    SWDUAL_REQUIRE(p != nullptr, "null profile set in multi-query group");
  }
  for (std::size_t q = 0; q < profiles.size(); ++q) {
    merged[q].scores.assign(db_.size(), 0);
    merged[q].exact.assign(db_.size(), 0);
    merged[q].edge_hit.assign(db_.size(), 0);
  }
  if (db_.empty() || profiles.empty()) return merged;

  // The banded kernel batches byte lanes; keep those batches unsplit the
  // same way run() aligns interseq chunks to the 16-bit lane count.
  const std::vector<Chunk> chunks =
      profiles[0]->kernel() == KernelKind::kScalar
          ? chunks_
          : batch_aligned_chunks(backend_lanes8(profiles[0]->backend()));

  std::vector<std::vector<ScreenResult>> per_chunk(chunks.size());
  if (pool_) {
    std::vector<std::future<std::vector<ScreenResult>>> futures;
    futures.reserve(chunks.size());
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      const Chunk chunk = chunks[c];
      futures.push_back(pool_->submit([this, profiles, chunk, c, band] {
        return screen_chunk_many(profiles, chunk, c, band);
      }));
    }
    for (std::size_t c = 0; c < futures.size(); ++c) {
      per_chunk[c] = futures[c].get();
    }
  } else {
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      per_chunk[c] = screen_chunk_many(profiles, chunks[c], c, band);
    }
  }

  // Scatter back to database order through the inverse permutation, like
  // run()'s merge — per-record screen values are chunk-independent.
  for (std::size_t q = 0; q < profiles.size(); ++q) {
    ScreenResult& out = merged[q];
    for (std::size_t c = 0; c < per_chunk.size(); ++c) {
      const Chunk& chunk = chunks[c];
      const ScreenResult& r = per_chunk[c][q];
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        const std::size_t at = original_index_[i];
        out.scores[at] = r.scores[i - chunk.begin];
        out.exact[at] = r.exact[i - chunk.begin];
        out.edge_hit[at] = r.edge_hit[i - chunk.begin];
      }
      out.cells += r.cells;
    }
  }
  return merged;
}

std::vector<FilteredSearchResult> ParallelSearchEngine::search_filtered_many(
    std::span<const SearchProfiles* const> profiles, std::size_t top_k,
    const FilterConfig& config) const {
  config.validate();
  if (!config.enabled()) {
    // Bit-identical to the unfiltered group scan.
    std::vector<RankedSearchResult> ranked =
        search_ranked_many(profiles, top_k);
    std::vector<FilteredSearchResult> results(ranked.size());
    for (std::size_t q = 0; q < ranked.size(); ++q) {
      results[q].result = std::move(ranked[q].result);
      results[q].hits = std::move(ranked[q].hits);
    }
    return results;
  }
  WallTimer timer;
  std::vector<ScreenResult> screens = screen_many(profiles, config.band);
  std::vector<FilteredSearchResult> results;
  results.reserve(profiles.size());
  for (std::size_t q = 0; q < profiles.size(); ++q) {
    results.push_back(filter_rescore(std::move(screens[q]), ordered_, top_k,
                                     config, exact_rescan(*profiles[q]), {},
                                     tracer_, metrics_, trace_track_));
    results.back().result.seconds = timer.seconds();
  }
  return results;
}

FilteredSearchResult ParallelSearchEngine::search_filtered(
    const SearchProfiles& profiles, std::size_t top_k,
    const FilterConfig& config) const {
  const SearchProfiles* group[] = {&profiles};
  std::vector<FilteredSearchResult> results =
      search_filtered_many(group, top_k, config);
  return std::move(results.front());
}

FilteredSearchResult ParallelSearchEngine::search_filtered(
    std::span<const std::uint8_t> query, const ScoringScheme& scheme,
    KernelKind kernel, std::size_t k, const FilterConfig& config,
    Backend backend) const {
  const SearchProfiles profiles(query, scheme, kernel, backend);
  return search_filtered(profiles, k, config);
}

SearchResult ParallelSearchEngine::search(std::span<const std::uint8_t> query,
                                          const ScoringScheme& scheme,
                                          KernelKind kernel,
                                          Backend backend) const {
  const SearchProfiles profiles(query, scheme, kernel, backend);
  return run(profiles, 0).result;
}

RankedSearchResult ParallelSearchEngine::search_ranked(
    std::span<const std::uint8_t> query, const ScoringScheme& scheme,
    KernelKind kernel, std::size_t k, Backend backend) const {
  const SearchProfiles profiles(query, scheme, kernel, backend);
  return run(profiles, k);
}

SearchResult ParallelSearchEngine::search(const SearchProfiles& profiles) const {
  return run(profiles, 0).result;
}

RankedSearchResult ParallelSearchEngine::search_ranked(
    const SearchProfiles& profiles, std::size_t k) const {
  return run(profiles, k);
}

}  // namespace swdual::align
