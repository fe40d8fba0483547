// The analysis pipeline's algebra: a streaming per-site fold plus a
// mergeable summary.
//
// fold_visit() maps one VisitLog to a SiteSummary — a pure function of the
// visit, the entity map, and the options. SiteSummary::merge() folds
// summaries together in site-rank order; counters add, pair/domain maps
// union, and per-pair creation metadata keeps the earlier summary's value
// (first-setter-wins, the same rule a sequential ingest applies). Batch
// analysis (Analyzer::ingest, analyze_archive) and the online serving tier
// (src/serve/) are both just this fold + merge:
//
//   batch:  summary = fold(v0) ⊕ fold(v1) ⊕ ... ⊕ fold(vN)   (one pass)
//   serve:  the ⊕-prefix is precomputed at load; a per-site query folds a
//           single decoded block (once; its answer is cached), aggregate
//           queries read the prefix.
//
// Because merge is associative and rank-ordered merges of disjoint shards
// equal a sequential fold (the PR 2 parallel-crawl identity, proven at 20k
// sites), one code path answers every consumer.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cookies/cookie.h"
#include "entities/entity_map.h"
#include "instrument/records.h"

namespace cg::analysis {

/// Identity of a cookie in the paper's sense: (name, domain of the script
/// that set it) — footnote 2.
struct CookiePair {
  std::string name;
  std::string owner_domain;
  auto operator<=>(const CookiePair&) const = default;
};

/// Per-pair aggregates. Entity maps count the number of *sites* on which
/// that entity performed the action (used for top-3 rankings).
struct PairStats {
  cookies::CookieSource created_via = cookies::CookieSource::kDocumentCookie;
  int sites_set = 0;
  std::map<std::string, int> exfiltrator_entities;
  std::map<std::string, int> destination_entities;
  std::map<std::string, int> overwriter_entities;
  std::map<std::string, int> deleter_entities;
  bool exfiltrated() const { return !exfiltrator_entities.empty(); }
  bool overwritten() const { return !overwriter_entities.empty(); }
  bool deleted() const { return !deleter_entities.empty(); }
};

/// Per-script-domain aggregates (Figures 2 and 6).
struct DomainStats {
  std::set<CookiePair> exfiltrated_pairs;
  std::set<CookiePair> overwritten_pairs;
  std::set<CookiePair> deleted_pairs;
};

/// Everything the benches print.
struct Totals {
  int sites_crawled = 0;
  int sites_complete = 0;

  // ---- §5.1 prevalence -----------------------------------------------
  int sites_with_third_party = 0;
  long long third_party_script_count = 0;  // distinct per site, summed
  long long third_party_ad_tracking_count = 0;
  long long tp_cookies_set = 0;  // per-site cookie set counts
  long long fp_cookies_set = 0;
  long long direct_inclusions = 0;
  long long indirect_inclusions = 0;
  long long indirect_ad_tracking = 0;

  // ---- §5.2 API usage ---------------------------------------------------
  int sites_using_document_cookie = 0;
  int sites_using_cookie_store = 0;
  std::set<std::string> store_cookie_names;
  long long store_setting_scripts = 0;
  std::set<std::string> store_script_domains;

  // ---- Table 1 site counters ---------------------------------------------
  int sites_doc_exfil = 0;
  int sites_doc_overwrite = 0;
  int sites_doc_delete = 0;
  int sites_store_exfil = 0;
  int sites_store_overwrite = 0;
  int sites_store_delete = 0;

  // ---- §5.5 overwrite attribute diffs ------------------------------------
  long long cross_overwrites = 0;
  long long overwrite_value_changed = 0;
  long long overwrite_expires_changed = 0;
  long long overwrite_domain_changed = 0;
  long long overwrite_path_changed = 0;

  // ---- §5.5 tracking-lifespan extension ----------------------------------
  // "overwriting is primarily used to manipulate the content and lifespan of
  // cookies ... to extend tracking durations beyond the original intent".
  long long overwrite_expiry_extended = 0;   // new expiry later than old
  long long overwrite_expiry_shortened = 0;  // new expiry earlier
  /// Total days of lifetime added by cross-domain expiry extensions.
  double expiry_days_added = 0;

  // ---- §8 DOM pilot -------------------------------------------------------
  int sites_with_cross_dom_modification = 0;

  // ---- attribution accuracy (simulator-only ground truth) ---------------
  long long attributed_sets = 0;
  long long attribution_correct = 0;
  long long attribution_unknown = 0;

  // ---- Table 4 timings ----------------------------------------------------
  std::vector<TimeMillis> dom_content_loaded;
  std::vector<TimeMillis> dom_interactive;
  std::vector<TimeMillis> load_event;

  long long script_set_events = 0;
  long long unique_setter_scripts = 0;

  /// Folds a later shard's totals into this one: counters add, name/domain
  /// sets union, timing vectors concatenate in shard order. Exception:
  /// `unique_setter_scripts` is summed here (script URLs can repeat across
  /// shards, so the sum is an upper bound) — SiteSummary::merge recomputes
  /// it exactly from the merged URL set.
  void merge(Totals&& other);
};

struct AnalyzerOptions {
  /// Match Base64/MD5/SHA1-encoded identifier forms in addition to raw
  /// (paper §4.3). Disable for the D5 ablation: raw-only detection misses
  /// every encoded exfiltration flow.
  bool match_encoded_identifiers = true;
  /// Keep only the Totals counters: fold_visit discards the per-pair,
  /// per-domain, and setter-URL maps after folding each visit, so the
  /// running aggregate stays O(1) in site count instead of O(sites) — the
  /// 1M-site streaming-crawl configuration. `unique_setter_scripts` reads 0
  /// in this mode (it is recomputed from the — now empty — URL set), and
  /// the ranked views (Tables 2/5, Figures 2/6) are empty.
  bool totals_only = false;
};

/// The complete aggregate state of an analysis — over one visit (the result
/// of fold_visit), one shard, or a whole crawl. Merging summaries of
/// disjoint site ranges in rank order reproduces a sequential fold exactly.
struct SiteSummary {
  Totals totals;
  std::map<CookiePair, PairStats> pairs;
  std::map<std::string, DomainStats> domains;
  std::set<std::string> setter_script_urls;

  /// Folds `other` into this summary. Precondition: `other` summarizes a
  /// *later*, disjoint site-rank range of the same corpus, folded with the
  /// same entity map and options. Cookie ownership is resolved per visit,
  /// so merged aggregates equal a sequential fold of the same visits in
  /// site order: counters add, pair/domain maps union (with counts added),
  /// and creation metadata keeps the earlier range's value — the same
  /// first-setter-wins rule the sequential path applies.
  void merge(SiteSummary&& other);

  // ---- ranked views (Tables 1/2/5, Figures 2/6) -------------------------

  /// Unique pair counts by creating API.
  int pair_count(cookies::CookieSource via) const;
  int exfiltrated_pair_count(cookies::CookieSource via) const;
  int overwritten_pair_count(cookies::CookieSource via) const;
  int deleted_pair_count(cookies::CookieSource via) const;

  /// Rows for Table 2 (top exfiltrated) / Table 5 (top manipulated),
  /// sorted by destination-entity (resp. manipulator-entity) count.
  struct RankedPair {
    CookiePair pair;
    const PairStats* stats;
  };
  std::vector<RankedPair> top_exfiltrated(std::size_t n) const;
  std::vector<RankedPair> top_overwritten(std::size_t n) const;
  std::vector<RankedPair> top_deleted(std::size_t n) const;

  /// Rows for Figures 2 / 6: (domain, unique-cookie count).
  std::vector<std::pair<std::string, int>> top_exfiltrator_domains(
      std::size_t n) const;
  std::vector<std::pair<std::string, int>> top_overwriter_domains(
      std::size_t n) const;
  std::vector<std::pair<std::string, int>> top_deleter_domains(
      std::size_t n) const;
};

/// The per-site fold: one visit's logs → one SiteSummary. Pure function of
/// its arguments (no hidden state, no clock, no randomness); incomplete
/// visits only contribute crawl counters and timings (the paper drops them
/// too). Cookie ownership, cross-domain attribution, and exfiltration
/// matching are all resolved within the visit, which is what makes the
/// result mergeable.
SiteSummary fold_visit(const entities::EntityMap& entities,
                       const AnalyzerOptions& options,
                       const instrument::VisitLog& log);

/// Returns the top-`n` keys of a frequency map, highest count first.
std::vector<std::pair<std::string, int>> top_counts(
    const std::map<std::string, int>& counts, std::size_t n);

}  // namespace cg::analysis
