// Independent answer checker. It shares nothing with the program's search
// code: from the program it takes only the substitution matrix and the gap
// penalties, and it scores with a plain full-matrix 32-bit affine-gap
// Smith-Waterman (gap of length L costs open + L * extend).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "align/scoring.h"
#include "align/search.h"

namespace perfbench::check {

using Residues = std::span<const std::uint8_t>;
using RecordFn = std::function<Residues(std::size_t)>;

/// Best local alignment score of `query` against `record`.
int sw_score(Residues query, Residues record,
             const swdual::align::ScoringScheme& scheme);

/// Global (end-to-end) alignment score under the same gap model; the
/// self-test scores the paper's Fig. 1 example with it.
int nw_score(Residues query, Residues record,
             const swdual::align::ScoringScheme& scheme);

/// Score of a SAM CIGAR (M, I = query residue against a gap, D = gap
/// against a record residue) laid on the sequences from the 1-based start
/// coordinates. Sets `error` and returns 0 when the CIGAR is malformed or
/// walks outside either sequence.
int cigar_score(const std::string& cigar, Residues query, Residues record,
                std::size_t query_begin, std::size_t record_begin,
                const swdual::align::ScoringScheme& scheme,
                std::string* error);

/// The k best records by the checker's own full scan, ranked by score
/// descending then record index ascending. Scans on `threads` threads.
std::vector<swdual::align::SearchHit> exact_top_k(
    Residues query, std::size_t records, const RecordFn& record,
    std::size_t k, const swdual::align::ScoringScheme& scheme,
    std::size_t threads);

/// Each check returns an empty string on success, else the reason.

/// Ranking: scores non-increasing, ties by ascending record index, no
/// record twice, every index below `records`.
std::string check_ranking(const std::vector<swdual::align::SearchHit>& hits,
                          std::size_t records);

/// Every hit's score equals the checker's alignment score of its record.
std::string check_scores(const std::vector<swdual::align::SearchHit>& hits,
                         Residues query, const RecordFn& record,
                         const swdual::align::ScoringScheme& scheme);

/// Every hit carries an annotation with a finite non-negative e-value, and
/// e-values never fall as the rank grows (scores fall).
std::string check_evalues(const std::vector<swdual::align::SearchHit>& hits);

/// Every hit's CIGAR re-scores to the hit's score and consumes exactly the
/// annotated query and record ranges.
std::string check_cigars(const std::vector<swdual::align::SearchHit>& hits,
                         Residues query, const RecordFn& record,
                         const swdual::align::ScoringScheme& scheme);

/// Hits equal `expected` in order: same records, scores and e-values.
std::string check_same(const std::vector<swdual::align::SearchHit>& hits,
                       const std::vector<swdual::align::SearchHit>& expected);

/// Hits are exactly the checker's full-scan top-k: same records and scores
/// in the same order.
std::string check_top_k(const std::vector<swdual::align::SearchHit>& hits,
                        const std::vector<swdual::align::SearchHit>& expected);

/// Scores the paper's Fig. 1 pair, re-scores hand-made CIGARs, and feeds
/// the checks a correct answer and deliberately corrupted copies of it.
/// Returns an empty string when every correct answer passes and every
/// corrupted one is rejected.
std::string self_test();

}  // namespace perfbench::check
