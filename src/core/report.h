// Search-report rendering: a finished search whose hits carry Karlin–Altschul
// annotations (MasterConfig.annotate, align/annotate.h), formatted like a
// classic sequence-search tool report.
#pragma once

#include <string>
#include <vector>

#include "master/master.h"

namespace swdual::core {

/// Render a full human-readable report for a finished search: per query the
/// ranked hits with score/bits/E-value, then the timing summary. Every hit
/// must carry its annotation, so run the search with MasterConfig.annotate
/// enabled (mode kStats or kStatsCigar, evalue_cutoff = `max_evalue`). Hits
/// with E-value above `max_evalue` are suppressed.
std::string render_search_report(const std::vector<seq::Sequence>& queries,
                                 const std::vector<seq::Sequence>& db,
                                 const master::SearchReport& report,
                                 double max_evalue = 10.0);

}  // namespace swdual::core
