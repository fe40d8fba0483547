// The paper's §5 and §8 tables as views over one fold, plus CSV exports.
//
// Every number the paper reports from the crawl is a function of one
// analysis::SiteSummary. This module is the only place that maps that
// summary to output: one JSON builder per paper section, each number
// computed once under one name. The measurement bench prints its text rows
// from these sections, `cgsim query --json` writes summary_to_json, and
// cgserve's table1/totals/top-exfiltrated/top-domains/waves answers are
// these sections with a "kind" member added — so serve == batch covers
// every served table.
//
// The paper promises to "release the source code ... to support
// reproducibility and future research"; these writers make every
// aggregate available to downstream tooling.
#pragma once

#include <ostream>
#include <string>

#include "analysis/analyzer.h"
#include "report/json.h"

namespace cg::report {

/// One CSV cell, quoted/escaped per RFC 4180 when needed.
std::string csv_escape(std::string_view cell);

// ---- one builder per section ---------------------------------------------
// Percentages and averages read 0 when their denominator is 0 (an empty or
// totals-only fold). Ranked sections hold the top `n` rows; with
// AnalyzerOptions::totals_only they are empty.

/// Dataset-level counters from analysis::Totals (the timing vectors as mean
/// and median) plus unique_pairs and exfiltrated_pairs from the pair map.
Json totals_to_json(const analysis::SiteSummary& summary);

/// §5.1 third-party prevalence and §5.6 inclusion paths.
Json prevalence_to_json(const analysis::SiteSummary& summary);

/// §5.2 script cookie API usage.
Json api_usage_to_json(const analysis::SiteSummary& summary);

/// Table 1: cross-domain actions by creating API, as sites and as pairs.
Json table1_to_json(const analysis::SiteSummary& summary);

/// Table 2 rows: the top `n` exfiltrated pairs by destination entities.
Json top_exfiltrated_to_json(const analysis::SiteSummary& summary,
                             std::size_t n);

/// Figure 2 rows: the top `n` exfiltrator script domains.
Json top_exfiltrator_domains_to_json(const analysis::SiteSummary& summary,
                                     std::size_t n);

/// §5.5 overwrite attributes, Table 5 (top overwritten/deleted pairs) and
/// Figure 6 (top overwriter/deleter domains), `n` rows per ranking.
Json manipulation_to_json(const analysis::SiteSummary& summary,
                          std::size_t n);

/// §8 pilot: cross-domain DOM modification.
Json dom_pilot_to_json(const analysis::SiteSummary& summary);

/// Every section, keyed totals, prevalence, api_usage, table1,
/// top_exfiltrated (Table 2), top_exfiltrator_domains (Figure 2),
/// manipulation and dom_pilot.
Json summary_to_json(const analysis::SiteSummary& summary, std::size_t top_n);
Json summary_to_json(const analysis::Analyzer& analyzer, std::size_t top_n);

// ---- CSV -----------------------------------------------------------------

/// Top-N exfiltrated/overwritten/deleted pairs as CSV:
/// name,owner_domain,action,entity_count,top_entities
void write_pairs_csv(const analysis::SiteSummary& summary, std::size_t n,
                     std::ostream& out);

/// Per-domain manipulation counts (Figures 2/6 data) as CSV:
/// domain,exfiltrated,overwritten,deleted
void write_domains_csv(const analysis::SiteSummary& summary, std::size_t n,
                       std::ostream& out);

}  // namespace cg::report
