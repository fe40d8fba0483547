#include "report/report.h"

#include <array>

namespace cg::report {
namespace {

using analysis::SiteSummary;
using cookies::CookieSource;

/// 100 * part / whole; 0 when there is no whole to take a share of.
double pct(double part, double whole) {
  return whole > 0 ? 100.0 * part / whole : 0.0;
}

/// part / whole; 0 when the whole is empty.
double per(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

/// The top-3 entities of a per-site frequency map, highest first.
std::string join_top(const std::map<std::string, int>& counts) {
  std::string out;
  for (const auto& [entity, count] : analysis::top_counts(counts, 3)) {
    if (!out.empty()) out += "; ";
    out += entity;
  }
  return out;
}

Json pair_row(const SiteSummary::RankedPair& row) {
  Json out = Json::object();
  out["name"] = row.pair.name;
  out["owner_domain"] = row.pair.owner_domain;
  return out;
}

Json domain_row(const std::string& domain, int unique_cookies) {
  Json row = Json::object();
  row["domain"] = domain;
  row["unique_cookies"] = unique_cookies;
  return row;
}

Json domain_rows(const std::vector<std::pair<std::string, int>>& ranked) {
  Json rows = Json::array();
  for (const auto& [domain, count] : ranked) {
    rows.push_back(domain_row(domain, count));
  }
  return rows;
}

Json timing(std::vector<TimeMillis> samples) {
  const auto summary = analysis::summarize(std::move(samples));
  Json j = Json::object();
  j["mean_ms"] = summary.mean_ms;
  j["median_ms"] = summary.median_ms;
  return j;
}

/// One Table 1 column group: the pairs a creating API made and the sites
/// and pairs with each cross-domain action.
Json api_actions(const SiteSummary& s, CookieSource via, int sites_exfil,
                 int sites_over, int sites_del) {
  const int complete = s.totals.sites_complete;
  const int pairs = s.pair_count(via);
  const int exfil = s.exfiltrated_pair_count(via);
  const int over = s.overwritten_pair_count(via);
  const int del = s.deleted_pair_count(via);
  Json out = Json::object();
  out["pairs"] = pairs;
  out["exfiltrated_pairs"] = exfil;
  out["overwritten_pairs"] = over;
  out["deleted_pairs"] = del;
  out["sites_exfiltrating"] = sites_exfil;
  out["sites_overwriting"] = sites_over;
  out["sites_deleting"] = sites_del;
  out["pct_sites_exfiltrating"] = pct(sites_exfil, complete);
  out["pct_sites_overwriting"] = pct(sites_over, complete);
  out["pct_sites_deleting"] = pct(sites_del, complete);
  out["pct_pairs_exfiltrated"] = pct(exfil, pairs);
  out["pct_pairs_overwritten"] = pct(over, pairs);
  out["pct_pairs_deleted"] = pct(del, pairs);
  return out;
}

}  // namespace

std::string csv_escape(std::string_view cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(cell);
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += '"';
  return out;
}

Json totals_to_json(const SiteSummary& s) {
  const analysis::Totals& t = s.totals;
  Json out = Json::object();
  out["sites_crawled"] = t.sites_crawled;
  out["sites_complete"] = t.sites_complete;
  out["sites_with_third_party"] = t.sites_with_third_party;
  out["third_party_script_count"] = t.third_party_script_count;
  out["third_party_ad_tracking_count"] = t.third_party_ad_tracking_count;
  out["tp_cookies_set"] = t.tp_cookies_set;
  out["fp_cookies_set"] = t.fp_cookies_set;
  out["direct_inclusions"] = t.direct_inclusions;
  out["indirect_inclusions"] = t.indirect_inclusions;
  out["sites_using_document_cookie"] = t.sites_using_document_cookie;
  out["sites_using_cookie_store"] = t.sites_using_cookie_store;
  out["sites_doc_exfil"] = t.sites_doc_exfil;
  out["sites_doc_overwrite"] = t.sites_doc_overwrite;
  out["sites_doc_delete"] = t.sites_doc_delete;
  out["sites_store_exfil"] = t.sites_store_exfil;
  out["cross_overwrites"] = t.cross_overwrites;
  out["overwrite_value_changed"] = t.overwrite_value_changed;
  out["overwrite_expires_changed"] = t.overwrite_expires_changed;
  out["overwrite_domain_changed"] = t.overwrite_domain_changed;
  out["overwrite_path_changed"] = t.overwrite_path_changed;
  out["overwrite_expiry_extended"] = t.overwrite_expiry_extended;
  out["overwrite_expiry_shortened"] = t.overwrite_expiry_shortened;
  out["expiry_days_added"] = t.expiry_days_added;
  out["sites_with_cross_dom_modification"] =
      t.sites_with_cross_dom_modification;
  out["attributed_sets"] = t.attributed_sets;
  out["attribution_correct"] = t.attribution_correct;
  out["attribution_unknown"] = t.attribution_unknown;
  out["script_set_events"] = t.script_set_events;
  out["unique_setter_scripts"] = t.unique_setter_scripts;
  out["unique_pairs"] = static_cast<std::int64_t>(s.pairs.size());
  out["exfiltrated_pairs"] =
      s.exfiltrated_pair_count(CookieSource::kDocumentCookie) +
      s.exfiltrated_pair_count(CookieSource::kCookieStore);

  Json timings = Json::object();
  timings["dom_content_loaded"] = timing(t.dom_content_loaded);
  timings["dom_interactive"] = timing(t.dom_interactive);
  timings["load_event"] = timing(t.load_event);
  out["timings"] = std::move(timings);
  return out;
}

Json prevalence_to_json(const SiteSummary& s) {
  const analysis::Totals& t = s.totals;
  const double crawled = t.sites_crawled;
  const double complete = t.sites_complete;
  Json out = Json::object();
  out["pct_sites_with_third_party"] = pct(t.sites_with_third_party, crawled);
  out["third_party_scripts_per_site"] =
      per(static_cast<double>(t.third_party_script_count), crawled);
  out["pct_third_party_ad_tracking"] =
      pct(static_cast<double>(t.third_party_ad_tracking_count),
          static_cast<double>(t.third_party_script_count));
  out["tp_cookies_per_site"] =
      per(static_cast<double>(t.tp_cookies_set), complete);
  out["fp_cookies_per_site"] =
      per(static_cast<double>(t.fp_cookies_set), complete);
  out["indirect_per_direct_inclusion"] =
      per(static_cast<double>(t.indirect_inclusions),
          static_cast<double>(t.direct_inclusions));
  out["pct_indirect_ad_tracking"] =
      pct(static_cast<double>(t.indirect_ad_tracking),
          static_cast<double>(t.indirect_inclusions));
  return out;
}

Json api_usage_to_json(const SiteSummary& s) {
  const analysis::Totals& t = s.totals;
  Json out = Json::object();
  out["pct_sites_using_document_cookie"] =
      pct(t.sites_using_document_cookie, t.sites_complete);
  out["pct_sites_using_cookie_store"] =
      pct(t.sites_using_cookie_store, t.sites_complete);
  Json names = Json::array();
  for (const std::string& name : t.store_cookie_names) names.push_back(name);
  out["store_cookie_names"] = std::move(names);
  out["store_script_domains"] =
      static_cast<std::int64_t>(t.store_script_domains.size());
  return out;
}

Json table1_to_json(const SiteSummary& s) {
  const analysis::Totals& t = s.totals;
  Json out = Json::object();
  out["sites_complete"] = t.sites_complete;
  out["document_cookie"] =
      api_actions(s, CookieSource::kDocumentCookie, t.sites_doc_exfil,
                  t.sites_doc_overwrite, t.sites_doc_delete);
  out["cookie_store"] =
      api_actions(s, CookieSource::kCookieStore, t.sites_store_exfil,
                  t.sites_store_overwrite, t.sites_store_delete);
  return out;
}

Json top_exfiltrated_to_json(const SiteSummary& s, std::size_t n) {
  Json rows = Json::array();
  for (const auto& ranked : s.top_exfiltrated(n)) {
    Json row = pair_row(ranked);
    const analysis::PairStats& stats = *ranked.stats;
    row["exfiltrator_entities"] =
        static_cast<std::int64_t>(stats.exfiltrator_entities.size());
    row["destination_entities"] =
        static_cast<std::int64_t>(stats.destination_entities.size());
    row["top_exfiltrators"] = join_top(stats.exfiltrator_entities);
    row["top_destinations"] = join_top(stats.destination_entities);
    row["sites_set"] = stats.sites_set;
    rows.push_back(std::move(row));
  }
  return rows;
}

Json top_exfiltrator_domains_to_json(const SiteSummary& s, std::size_t n) {
  const double all_pairs = s.pair_count(CookieSource::kDocumentCookie) +
                           s.pair_count(CookieSource::kCookieStore);
  Json rows = Json::array();
  for (const auto& [domain, count] : s.top_exfiltrator_domains(n)) {
    Json row = domain_row(domain, count);
    row["pct_of_all_pairs"] = pct(count, all_pairs);
    rows.push_back(std::move(row));
  }
  return rows;
}

Json manipulation_to_json(const SiteSummary& s, std::size_t n) {
  const analysis::Totals& t = s.totals;
  const double overwrites = static_cast<double>(t.cross_overwrites);
  Json out = Json::object();
  out["pct_overwrites_value_changed"] =
      pct(static_cast<double>(t.overwrite_value_changed), overwrites);
  out["pct_overwrites_expires_changed"] =
      pct(static_cast<double>(t.overwrite_expires_changed), overwrites);
  out["pct_overwrites_domain_changed"] =
      pct(static_cast<double>(t.overwrite_domain_changed), overwrites);
  out["pct_overwrites_path_changed"] =
      pct(static_cast<double>(t.overwrite_path_changed), overwrites);
  out["days_added_per_extension"] =
      per(t.expiry_days_added,
          static_cast<double>(t.overwrite_expiry_extended));

  Json overwritten = Json::array();
  for (const auto& ranked : s.top_overwritten(n)) {
    Json row = pair_row(ranked);
    row["overwriter_entities"] =
        static_cast<std::int64_t>(ranked.stats->overwriter_entities.size());
    row["top_overwriters"] = join_top(ranked.stats->overwriter_entities);
    overwritten.push_back(std::move(row));
  }
  out["top_overwritten"] = std::move(overwritten);
  Json deleted = Json::array();
  for (const auto& ranked : s.top_deleted(n)) {
    Json row = pair_row(ranked);
    row["deleter_entities"] =
        static_cast<std::int64_t>(ranked.stats->deleter_entities.size());
    row["top_deleters"] = join_top(ranked.stats->deleter_entities);
    deleted.push_back(std::move(row));
  }
  out["top_deleted"] = std::move(deleted);
  out["top_overwriter_domains"] = domain_rows(s.top_overwriter_domains(n));
  out["top_deleter_domains"] = domain_rows(s.top_deleter_domains(n));
  return out;
}

Json dom_pilot_to_json(const SiteSummary& s) {
  Json out = Json::object();
  out["pct_sites_with_cross_dom_modification"] =
      pct(s.totals.sites_with_cross_dom_modification, s.totals.sites_complete);
  return out;
}

Json summary_to_json(const SiteSummary& s, std::size_t top_n) {
  Json out = Json::object();
  out["totals"] = totals_to_json(s);
  out["prevalence"] = prevalence_to_json(s);
  out["api_usage"] = api_usage_to_json(s);
  out["table1"] = table1_to_json(s);
  out["top_exfiltrated"] = top_exfiltrated_to_json(s, top_n);
  out["top_exfiltrator_domains"] = top_exfiltrator_domains_to_json(s, top_n);
  out["manipulation"] = manipulation_to_json(s, top_n);
  out["dom_pilot"] = dom_pilot_to_json(s);
  return out;
}

Json summary_to_json(const analysis::Analyzer& analyzer, std::size_t top_n) {
  return summary_to_json(analyzer.summary(), top_n);
}

void write_pairs_csv(const SiteSummary& s, std::size_t n, std::ostream& out) {
  out << "cookie_name,owner_domain,action,entity_count,top_entities\n";
  const auto emit = [&](const std::vector<SiteSummary::RankedPair>& rows,
                        const char* action,
                        const std::map<std::string, int> analysis::PairStats::*
                            field) {
    for (const auto& row : rows) {
      const auto& counts = row.stats->*field;
      out << csv_escape(row.pair.name) << ','
          << csv_escape(row.pair.owner_domain) << ',' << action << ','
          << counts.size() << ',' << csv_escape(join_top(counts)) << '\n';
    }
  };
  emit(s.top_exfiltrated(n), "exfiltrated",
       &analysis::PairStats::exfiltrator_entities);
  emit(s.top_overwritten(n), "overwritten",
       &analysis::PairStats::overwriter_entities);
  emit(s.top_deleted(n), "deleted", &analysis::PairStats::deleter_entities);
}

void write_domains_csv(const SiteSummary& s, std::size_t n,
                       std::ostream& out) {
  out << "domain,exfiltrated,overwritten,deleted\n";
  std::map<std::string, std::array<int, 3>> merged;
  for (const auto& [domain, count] : s.top_exfiltrator_domains(n)) {
    merged[domain][0] = count;
  }
  for (const auto& [domain, count] : s.top_overwriter_domains(n)) {
    merged[domain][1] = count;
  }
  for (const auto& [domain, count] : s.top_deleter_domains(n)) {
    merged[domain][2] = count;
  }
  for (const auto& [domain, counts] : merged) {
    out << csv_escape(domain) << ',' << counts[0] << ',' << counts[1] << ','
        << counts[2] << '\n';
  }
}

}  // namespace cg::report
