#include "checker.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "align/annotate.h"
#include "seq/dbgen.h"
#include "util/rng.h"

namespace perfbench::check {

using swdual::align::SearchHit;

namespace {

/// Gotoh affine-gap DP over the full matrix, rolled row by row. Local
/// (Smith-Waterman): cells floor at 0, result is the best cell. Global
/// (Needleman-Wunsch): gapped borders, result is the corner cell.
int affine_score(Residues query, Residues record,
                 const swdual::align::ScoringScheme& scheme, bool local) {
  const int open = scheme.gap.open;
  const int extend = scheme.gap.extend;
  const std::size_t n = record.size();
  constexpr int kNone = -(1 << 29);
  const auto border = [&](std::size_t length) {
    return local || length == 0 ? 0 : -(open + static_cast<int>(length) * extend);
  };
  // h[j] / f[j] hold row i-1 on entry to row i; e carries along the row.
  std::vector<int> h(n + 1), f(n + 1, kNone);
  for (std::size_t j = 0; j <= n; ++j) h[j] = border(j);
  int best = 0;
  for (std::size_t i = 1; i <= query.size(); ++i) {
    const std::uint8_t q = query[i - 1];
    int diagonal = h[0];  // H[i-1][j-1]
    h[0] = border(i);
    int left = h[0];      // H[i][j-1]
    int e = kNone;        // E[i][j-1]
    for (std::size_t j = 1; j <= n; ++j) {
      e = std::max(e - extend, left - open - extend);
      f[j] = std::max(f[j] - extend, h[j] - open - extend);
      int cell = std::max(
          {diagonal + scheme.matrix->score(q, record[j - 1]), e, f[j]});
      if (local) cell = std::max(cell, 0);
      diagonal = h[j];
      h[j] = cell;
      left = cell;
      best = std::max(best, cell);
    }
  }
  return local ? best : h[n];
}

}  // namespace

int sw_score(Residues query, Residues record,
             const swdual::align::ScoringScheme& scheme) {
  return affine_score(query, record, scheme, /*local=*/true);
}

int nw_score(Residues query, Residues record,
             const swdual::align::ScoringScheme& scheme) {
  return affine_score(query, record, scheme, /*local=*/false);
}

int cigar_score(const std::string& cigar, Residues query, Residues record,
                std::size_t query_begin, std::size_t record_begin,
                const swdual::align::ScoringScheme& scheme,
                std::string* error) {
  if (cigar.empty()) return 0;
  if (query_begin == 0 || record_begin == 0) {
    *error = "CIGAR start coordinates are 1-based";
    return 0;
  }
  std::size_t qi = query_begin - 1, ri = record_begin - 1;
  int score = 0;
  std::size_t run = 0;
  bool have_run = false;
  for (const char c : cigar) {
    if (c >= '0' && c <= '9') {
      run = run * 10 + static_cast<std::size_t>(c - '0');
      have_run = true;
      continue;
    }
    if (!have_run || run == 0) {
      *error = std::string("CIGAR op '") + c + "' without a positive length";
      return 0;
    }
    if (c == 'M') {
      if (qi + run > query.size() || ri + run > record.size()) {
        *error = "CIGAR M run walks past a sequence end";
        return 0;
      }
      for (std::size_t k = 0; k < run; ++k) {
        score += scheme.matrix->score(query[qi + k], record[ri + k]);
      }
      qi += run;
      ri += run;
    } else if (c == 'I' || c == 'D') {
      std::size_t& index = c == 'I' ? qi : ri;
      const std::size_t limit = c == 'I' ? query.size() : record.size();
      if (index + run > limit) {
        *error = "CIGAR gap run walks past a sequence end";
        return 0;
      }
      index += run;
      score -= scheme.gap.open + static_cast<int>(run) * scheme.gap.extend;
    } else {
      *error = std::string("unknown CIGAR op '") + c + "'";
      return 0;
    }
    run = 0;
    have_run = false;
  }
  if (have_run) {
    *error = "CIGAR ends with a length and no op";
    return 0;
  }
  return score;
}

std::vector<SearchHit> exact_top_k(Residues query, std::size_t records,
                                   const RecordFn& record, std::size_t k,
                                   const swdual::align::ScoringScheme& scheme,
                                   std::size_t threads) {
  std::vector<int> scores(records, 0);
  threads = std::max<std::size_t>(1, threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < records; i += threads) {
        scores[i] = sw_score(query, record(i), scheme);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  std::vector<SearchHit> ranked;
  ranked.reserve(records);
  for (std::size_t i = 0; i < records; ++i) ranked.emplace_back(i, scores[i]);
  const std::size_t keep = std::min(k, ranked.size());
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(keep),
                    ranked.end(), [](const SearchHit& a, const SearchHit& b) {
                      return a.score != b.score ? a.score > b.score
                                                : a.db_index < b.db_index;
                    });
  ranked.resize(keep);
  return ranked;
}

std::string check_ranking(const std::vector<SearchHit>& hits,
                          std::size_t records) {
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (hits[i].db_index >= records) {
      return "hit " + std::to_string(i) + " names record " +
             std::to_string(hits[i].db_index) + " of " +
             std::to_string(records);
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (hits[j].db_index == hits[i].db_index) {
        return "record " + std::to_string(hits[i].db_index) +
               " returned twice";
      }
    }
    if (i == 0) continue;
    const SearchHit& prev = hits[i - 1];
    if (prev.score < hits[i].score ||
        (prev.score == hits[i].score && prev.db_index > hits[i].db_index)) {
      return "hits " + std::to_string(i - 1) + "," + std::to_string(i) +
             " out of rank order";
    }
  }
  return {};
}

std::string check_scores(const std::vector<SearchHit>& hits, Residues query,
                         const RecordFn& record,
                         const swdual::align::ScoringScheme& scheme) {
  for (const SearchHit& hit : hits) {
    const int want = sw_score(query, record(hit.db_index), scheme);
    if (want != hit.score) {
      return "record " + std::to_string(hit.db_index) + " scored " +
             std::to_string(hit.score) + ", checker says " +
             std::to_string(want);
    }
  }
  return {};
}

std::string check_evalues(const std::vector<SearchHit>& hits) {
  double previous = 0.0;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (!hits[i].annotation) return "hit " + std::to_string(i) + " unannotated";
    const double e = hits[i].annotation->evalue;
    // A near-identical hit's K*m*n*exp(-lambda*S) underflows to 0.0 (BLAST
    // prints such hits as 0.0 too), so 0 is a valid e-value.
    if (!std::isfinite(e) || e < 0.0) {
      return "hit " + std::to_string(i) + " has e-value " + std::to_string(e);
    }
    if (i > 0 && e < previous) {
      return "e-value falls from hit " + std::to_string(i - 1) + " to " +
             std::to_string(i) + " while the score does not rise";
    }
    previous = e;
  }
  return {};
}

std::string check_cigars(const std::vector<SearchHit>& hits, Residues query,
                         const RecordFn& record,
                         const swdual::align::ScoringScheme& scheme) {
  for (const SearchHit& hit : hits) {
    const std::string where = "record " + std::to_string(hit.db_index);
    if (!hit.annotation) return where + ": no annotation";
    const swdual::align::HitAnnotation& a = *hit.annotation;
    if (a.cigar.empty()) return where + ": no CIGAR";
    std::string error;
    const Residues residues = record(hit.db_index);
    const int score = cigar_score(a.cigar, query, residues, a.query_begin,
                                  a.db_begin, scheme, &error);
    if (!error.empty()) return where + ": " + error;
    if (score != hit.score) {
      return where + ": CIGAR " + a.cigar + " re-scores to " +
             std::to_string(score) + ", hit says " + std::to_string(hit.score);
    }
    std::size_t query_used = 0, record_used = 0, run = 0;
    for (const char c : a.cigar) {
      if (c >= '0' && c <= '9') {
        run = run * 10 + static_cast<std::size_t>(c - '0');
        continue;
      }
      if (c != 'D') query_used += run;
      if (c != 'I') record_used += run;
      run = 0;
    }
    if (a.query_end + 1 != a.query_begin + query_used ||
        a.db_end + 1 != a.db_begin + record_used) {
      return where + ": CIGAR does not span the annotated ranges";
    }
  }
  return {};
}

std::string check_same(const std::vector<SearchHit>& hits,
                       const std::vector<SearchHit>& expected) {
  if (hits.size() != expected.size()) {
    return std::to_string(hits.size()) + " hits, first answer had " +
           std::to_string(expected.size());
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const SearchHit& a = hits[i];
    const SearchHit& b = expected[i];
    const bool same_annotation =
        (!a.annotation && !b.annotation) ||
        (a.annotation && b.annotation &&
         a.annotation->evalue == b.annotation->evalue &&
         a.annotation->cigar == b.annotation->cigar);
    if (a.db_index != b.db_index || a.score != b.score || !same_annotation) {
      return "hit " + std::to_string(i) + " differs from the first answer";
    }
  }
  return {};
}

std::string check_top_k(const std::vector<SearchHit>& hits,
                        const std::vector<SearchHit>& expected) {
  if (hits.size() != expected.size()) {
    return std::to_string(hits.size()) + " hits, full scan has " +
           std::to_string(expected.size());
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (hits[i].db_index != expected[i].db_index ||
        hits[i].score != expected[i].score) {
      return "rank " + std::to_string(i) + ": record " +
             std::to_string(hits[i].db_index) + " score " +
             std::to_string(hits[i].score) + ", full scan has record " +
             std::to_string(expected[i].db_index) + " score " +
             std::to_string(expected[i].score);
    }
  }
  return {};
}

namespace {

std::vector<std::uint8_t> dna(const std::string& text) {
  std::vector<std::uint8_t> codes;
  for (const char c : text) {
    codes.push_back(c == 'A' ? 0 : c == 'C' ? 1 : c == 'G' ? 2 : 3);
  }
  return codes;
}

}  // namespace

std::string self_test() {
  using namespace swdual;
  // Fig. 1 of the paper: +1 match, -1 mismatch, -2 per gap residue. The
  // figure's global alignment scores 4; the best local one is TTGTC = 5.
  const align::ScoreMatrix unit =
      align::ScoreMatrix::uniform(seq::AlphabetKind::kDna, 1, -1);
  const align::ScoringScheme linear{&unit, {0, 2}};
  const auto q = dna("ACTTGTCCG");
  const auto d = dna("ATTGTCAG");
  if (const int s = nw_score(q, d, linear); s != 4) {
    return "Fig. 1 pair scored " + std::to_string(s) + " globally, expected 4";
  }
  if (const int s = sw_score(q, d, linear); s != 5) {
    return "Fig. 1 pair scored " + std::to_string(s) + " locally, expected 5";
  }
  // Hand-made CIGARs: AACCGGTT over AACC--TT = 6 matches - (open + 2 ext).
  const auto a = dna("AACCGGTT");
  const auto b = dna("AACCTT");
  const align::ScoringScheme affine{&unit, {3, 2}};
  std::string error;
  if (cigar_score("4M2I2M", a, b, 1, 1, affine, &error) != 6 - 7 ||
      !error.empty()) {
    return "CIGAR 4M2I2M mis-scored";
  }
  cigar_score("4M3I2M", a, b, 1, 1, affine, &error);
  if (error.empty()) return "CIGAR walking past the query was accepted";

  // A real answer from the program on a small protein database with one
  // planted homolog, annotated with fixed (uncalibrated) parameters.
  const align::ScoringScheme scheme;
  Rng rng(2014);
  std::vector<seq::Sequence> db;
  for (std::size_t i = 0; i < 40; ++i) {
    db.push_back(seq::random_protein(rng, "r", 60 + rng.below(80)));
  }
  const seq::Sequence query = seq::random_protein(rng, "q", 90);
  std::vector<std::uint8_t> homolog = query.residues;
  for (std::size_t i = 0; i < homolog.size(); i += 7) homolog[i] = 5;
  homolog.erase(homolog.begin() + 40, homolog.begin() + 43);
  db[17].residues = homolog;
  const align::DbView view = align::make_db_view(db);
  const RecordFn record = [&view](std::size_t i) { return view[i]; };
  const Residues qv(query.residues);
  std::vector<SearchHit> hits =
      align::search_database(qv, view, scheme, align::KernelKind::kInterSeq)
          .top(5);
  align::AnnotateConfig annotate;
  annotate.mode = align::AnnotateMode::kStatsCigar;
  const align::KarlinAltschulParams params{0.267, 0.041};
  align::annotate_hits(hits, qv, view, scheme, annotate, params,
                       align::db_residue_count(view));

  const auto verdict = [&](const std::vector<SearchHit>& answer) {
    std::string reason = check_ranking(answer, db.size());
    if (reason.empty()) reason = check_scores(answer, qv, record, scheme);
    if (reason.empty()) reason = check_evalues(answer);
    if (reason.empty()) reason = check_cigars(answer, qv, record, scheme);
    if (reason.empty()) {
      reason = check_top_k(answer,
                           exact_top_k(qv, db.size(), record, 5, scheme, 1));
    }
    return reason;
  };
  if (std::string reason = verdict(hits); !reason.empty()) {
    return "correct answer rejected: " + reason;
  }
  if (hits.front().db_index != 17) return "planted homolog not ranked first";

  const auto corrupted = [&](const std::string& what, auto&& corrupt) {
    std::vector<SearchHit> bad = hits;
    corrupt(bad);
    return verdict(bad).empty() ? "corrupted answer accepted: " + what
                                : std::string();
  };
  const auto copy_annotation = [](SearchHit& hit) {
    auto copy = std::make_shared<align::HitAnnotation>(*hit.annotation);
    hit.annotation = copy;
    return copy;
  };
  for (const std::string& reason : {
           corrupted("score off by one", [](auto& h) { h[1].score += 1; }),
           corrupted("swapped ranks", [](auto& h) { std::swap(h[0], h[1]); }),
           corrupted("wrong record",
                     [&](auto& h) {
                       h[4].db_index = h[4].db_index == 3 ? 4 : 3;
                       h[4].score = sw_score(qv, view[h[4].db_index], scheme);
                     }),
           corrupted("CIGAR edited",
                     [&](auto& h) { copy_annotation(h[0])->cigar += "1M"; }),
           corrupted("e-value order",
                     [&](auto& h) { copy_annotation(h[2])->evalue = 1e-300; }),
       }) {
    if (!reason.empty()) return reason;
  }
  return {};
}

}  // namespace perfbench::check
