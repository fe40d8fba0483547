#include "analysis/fold.h"

#include <algorithm>
#include <functional>

#include "crypto/base64.h"
#include "crypto/md5.h"
#include "crypto/sha1.h"
#include "net/query.h"
#include "net/url.h"
#include "script/interpreter.h"

namespace cg::analysis {
namespace {

using cookies::CookieSource;
using Type = cookies::CookieChange::Type;

// A set/overwrite/delete event on the per-visit ownership timeline.
struct TimelineEvent {
  TimeMillis time;
  bool from_http;
  const instrument::ScriptCookieSetRecord* script = nullptr;
  const instrument::HttpCookieSetRecord* http = nullptr;
};

}  // namespace

std::vector<std::pair<std::string, int>> top_counts(
    const std::map<std::string, int>& counts, std::size_t n) {
  std::vector<std::pair<std::string, int>> out(counts.begin(), counts.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (out.size() > n) out.resize(n);
  return out;
}

TimingSummary summarize(std::vector<TimeMillis> samples) {
  TimingSummary out;
  if (samples.empty()) return out;
  double sum = 0;
  for (const auto v : samples) sum += static_cast<double>(v);
  out.mean_ms = sum / static_cast<double>(samples.size());
  auto mid = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  out.median_ms = *mid;
  return out;
}

void Totals::merge(Totals&& other) {
  sites_crawled += other.sites_crawled;
  sites_complete += other.sites_complete;

  sites_with_third_party += other.sites_with_third_party;
  third_party_script_count += other.third_party_script_count;
  third_party_ad_tracking_count += other.third_party_ad_tracking_count;
  tp_cookies_set += other.tp_cookies_set;
  fp_cookies_set += other.fp_cookies_set;
  direct_inclusions += other.direct_inclusions;
  indirect_inclusions += other.indirect_inclusions;
  indirect_ad_tracking += other.indirect_ad_tracking;

  sites_using_document_cookie += other.sites_using_document_cookie;
  sites_using_cookie_store += other.sites_using_cookie_store;
  store_cookie_names.merge(other.store_cookie_names);
  store_setting_scripts += other.store_setting_scripts;
  store_script_domains.merge(other.store_script_domains);

  sites_doc_exfil += other.sites_doc_exfil;
  sites_doc_overwrite += other.sites_doc_overwrite;
  sites_doc_delete += other.sites_doc_delete;
  sites_store_exfil += other.sites_store_exfil;
  sites_store_overwrite += other.sites_store_overwrite;
  sites_store_delete += other.sites_store_delete;

  cross_overwrites += other.cross_overwrites;
  overwrite_value_changed += other.overwrite_value_changed;
  overwrite_expires_changed += other.overwrite_expires_changed;
  overwrite_domain_changed += other.overwrite_domain_changed;
  overwrite_path_changed += other.overwrite_path_changed;

  overwrite_expiry_extended += other.overwrite_expiry_extended;
  overwrite_expiry_shortened += other.overwrite_expiry_shortened;
  expiry_days_added += other.expiry_days_added;

  sites_with_cross_dom_modification += other.sites_with_cross_dom_modification;

  attributed_sets += other.attributed_sets;
  attribution_correct += other.attribution_correct;
  attribution_unknown += other.attribution_unknown;

  dom_content_loaded.insert(dom_content_loaded.end(),
                            other.dom_content_loaded.begin(),
                            other.dom_content_loaded.end());
  dom_interactive.insert(dom_interactive.end(), other.dom_interactive.begin(),
                         other.dom_interactive.end());
  load_event.insert(load_event.end(), other.load_event.begin(),
                    other.load_event.end());

  script_set_events += other.script_set_events;
  unique_setter_scripts += other.unique_setter_scripts;  // upper bound; see .h
}

void SiteSummary::merge(SiteSummary&& other) {
  totals.merge(std::move(other.totals));

  for (auto& [pair, stats] : other.pairs) {
    auto [it, inserted] = pairs.try_emplace(pair, std::move(stats));
    if (inserted) continue;
    PairStats& mine = it->second;
    // created_via stays ours: the earlier range recorded the pair first,
    // exactly as a sequential fold would have.
    mine.sites_set += stats.sites_set;
    for (const auto& [entity, n] : stats.exfiltrator_entities) {
      mine.exfiltrator_entities[entity] += n;
    }
    for (const auto& [entity, n] : stats.destination_entities) {
      mine.destination_entities[entity] += n;
    }
    for (const auto& [entity, n] : stats.overwriter_entities) {
      mine.overwriter_entities[entity] += n;
    }
    for (const auto& [entity, n] : stats.deleter_entities) {
      mine.deleter_entities[entity] += n;
    }
  }

  for (auto& [domain, stats] : other.domains) {
    auto [it, inserted] = domains.try_emplace(domain, std::move(stats));
    if (inserted) continue;
    it->second.exfiltrated_pairs.merge(stats.exfiltrated_pairs);
    it->second.overwritten_pairs.merge(stats.overwritten_pairs);
    it->second.deleted_pairs.merge(stats.deleted_pairs);
  }

  setter_script_urls.merge(other.setter_script_urls);
  totals.unique_setter_scripts =
      static_cast<long long>(setter_script_urls.size());
}

SiteSummary fold_visit(const entities::EntityMap& entities,
                       const AnalyzerOptions& options,
                       const instrument::VisitLog& log) {
  SiteSummary out;
  Totals& totals = out.totals;
  ++totals.sites_crawled;

  // Timings are collected for every crawled site (Table 4 uses all visits).
  totals.dom_content_loaded.push_back(log.landing_timings.dom_content_loaded);
  totals.dom_interactive.push_back(log.landing_timings.dom_interactive);
  totals.load_event.push_back(log.landing_timings.load_event);

  // ---- §5.1 third-party prevalence ------------------------------------
  // The paper reports these over all 20,000 sites, not just the 14,917 with
  // complete logs.
  std::set<std::string> tp_script_urls;
  std::set<std::string> tp_ad_tracking_urls;
  for (const auto& inc : log.includes) {
    if (inc.is_inline || inc.domain.empty() || inc.domain == log.site) {
      continue;
    }
    tp_script_urls.insert(inc.url);
    if (script::is_ad_or_tracking(inc.category)) {
      tp_ad_tracking_urls.insert(inc.url);
    }
    if (inc.inclusion == script::Inclusion::kDirect) {
      ++totals.direct_inclusions;
    } else {
      ++totals.indirect_inclusions;
      if (script::is_ad_or_tracking(inc.category)) {
        ++totals.indirect_ad_tracking;
      }
    }
  }
  if (!tp_script_urls.empty()) ++totals.sites_with_third_party;
  totals.third_party_script_count +=
      static_cast<long long>(tp_script_urls.size());
  totals.third_party_ad_tracking_count +=
      static_cast<long long>(tp_ad_tracking_urls.size());

  if (!log.complete()) return out;
  ++totals.sites_complete;

  // ---- §5.2 API usage -----------------------------------------------------
  bool uses_document_cookie = false;
  bool uses_cookie_store = false;
  for (const auto& read : log.reads) {
    if (read.api == CookieSource::kDocumentCookie) uses_document_cookie = true;
    if (read.api == CookieSource::kCookieStore) uses_cookie_store = true;
  }
  for (const auto& set : log.script_sets) {
    if (set.api == CookieSource::kDocumentCookie) uses_document_cookie = true;
    if (set.api == CookieSource::kCookieStore) uses_cookie_store = true;
  }
  if (uses_document_cookie) ++totals.sites_using_document_cookie;
  if (uses_cookie_store) ++totals.sites_using_cookie_store;

  // ---- ownership timeline (§4.3 steps 1-2) ------------------------------
  // Merge script and HTTP set events by time. The FIRST setter of a name
  // owns the pair; later actions by other script domains are cross-domain.
  std::vector<TimelineEvent> events;
  events.reserve(log.script_sets.size() + log.http_sets.size());
  for (const auto& s : log.script_sets) {
    events.push_back({s.time, false, &s, nullptr});
  }
  for (const auto& h : log.http_sets) {
    if (!h.first_party) continue;  // third-party response cookies: out of scope
    events.push_back({h.time, true, nullptr, &h});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TimelineEvent& a, const TimelineEvent& b) {
                     return a.time < b.time;
                   });

  // name -> (owner domain, creating api). Inline/unknown setters are folded
  // into the first party, as the paper does for inline scripts.
  std::map<std::string, std::pair<std::string, CookieSource>> owner;
  // Candidate identifiers: encoded form -> owning pair (for exfiltration).
  // Ordered map (cglint D3): lookups dominate, but nothing downstream may
  // ever depend on hash-table iteration order.
  std::map<std::string, CookiePair> candidates;
  std::set<CookiePair> pairs_this_visit;

  // A candidate segment seen in the values of two *different* pairs (e.g. a
  // shared timestamp) identifies neither — mark it ambiguous and never match
  // it. The sentinel has an empty name.
  static const CookiePair kAmbiguous{};
  auto add_candidate = [&](std::string encoded, const CookiePair& pair) {
    auto [it, inserted] = candidates.try_emplace(std::move(encoded), pair);
    if (!inserted && it->second != pair) it->second = kAmbiguous;
  };
  auto add_candidates = [&](const CookiePair& pair, const std::string& value) {
    for (const auto& segment : script::extract_identifier_segments(value)) {
      add_candidate(segment, pair);
      if (options.match_encoded_identifiers) {
        add_candidate(crypto::base64_encode(segment), pair);
        add_candidate(crypto::Md5::hex(segment), pair);
        add_candidate(crypto::Sha1::hex(segment), pair);
      }
    }
  };

  auto record_pair = [&](const CookiePair& pair, CookieSource via) {
    auto [it, inserted] = out.pairs.try_emplace(pair);
    if (inserted) it->second.created_via = via;
    if (pairs_this_visit.insert(pair).second) ++it->second.sites_set;
  };

  std::set<std::string> cross_over_apis;  // "doc" / "store" flags per site
  std::set<std::string> cross_del_apis;

  for (const auto& event : events) {
    if (event.from_http) {
      const auto& h = *event.http;
      if (h.http_only) continue;  // invisible to scripts, out of scope
      const auto it = owner.find(h.cookie_name);
      if (it == owner.end()) {
        if (h.change_type == Type::kCreated ||
            h.change_type == Type::kOverwritten) {
          owner[h.cookie_name] = {h.setter_domain, CookieSource::kHttpHeader};
          const CookiePair pair{h.cookie_name, h.setter_domain};
          record_pair(pair, CookieSource::kHttpHeader);
          add_candidates(pair, h.value);
        }
      } else if (h.change_type == Type::kOverwritten ||
                 h.change_type == Type::kCreated) {
        // Header re-sets re-attribute ownership to the response site but are
        // NOT counted as cross-domain manipulations (§9: header actions are
        // out of scope).
        add_candidates({h.cookie_name, it->second.first}, h.value);
      }
      continue;
    }

    const auto& s = *event.script;
    ++totals.script_set_events;
    if (!s.setter_url.empty()) out.setter_script_urls.insert(s.setter_url);

    // Attribution accuracy bookkeeping (ground truth vs stack-derived).
    ++totals.attributed_sets;
    if (s.setter_domain.empty()) {
      ++totals.attribution_unknown;
    } else if (s.setter_domain == s.true_domain) {
      ++totals.attribution_correct;
    }

    // Fold inline/unknown setters into the first party.
    const std::string actor =
        s.setter_domain.empty() ? log.site : s.setter_domain;
    const bool actor_is_tp = actor != log.site;

    const auto it = owner.find(s.cookie_name);
    if (it == owner.end()) {
      if (s.change_type == Type::kCreated ||
          s.change_type == Type::kOverwritten) {
        owner[s.cookie_name] = {actor, s.api};
        const CookiePair pair{s.cookie_name, actor};
        record_pair(pair, s.api);
        add_candidates(pair, s.value);
        if (actor_is_tp) {
          ++totals.tp_cookies_set;
        } else {
          ++totals.fp_cookies_set;
        }
      }
      continue;
    }

    const std::string& owning_domain = it->second.first;
    const CookiePair pair{s.cookie_name, owning_domain};
    const std::string api_tag =
        s.api == CookieSource::kCookieStore ? "store" : "doc";

    if (actor == owning_domain) {
      // Same-domain refresh: extend candidates with the new value.
      if (s.change_type != Type::kDeleted) add_candidates(pair, s.value);
      if (s.change_type == Type::kDeleted) owner.erase(it);
      continue;
    }

    // Cross-domain action (§4.3 step 3).
    if (s.change_type == Type::kOverwritten) {
      auto& stats = out.pairs[pair];
      ++stats.overwriter_entities[entities.entity_for(actor)];
      out.domains[actor].overwritten_pairs.insert(pair);
      cross_over_apis.insert(api_tag);
      ++totals.cross_overwrites;
      totals.overwrite_value_changed += s.value_changed ? 1 : 0;
      totals.overwrite_expires_changed += s.expires_changed ? 1 : 0;
      totals.overwrite_domain_changed += s.domain_changed ? 1 : 0;
      totals.overwrite_path_changed += s.path_changed ? 1 : 0;
      if (s.expires_changed && s.prev_expires > 0 && s.new_expires > 0) {
        if (s.new_expires > s.prev_expires) {
          ++totals.overwrite_expiry_extended;
          totals.expiry_days_added +=
              static_cast<double>(s.new_expires - s.prev_expires) / 86400000.0;
        } else {
          ++totals.overwrite_expiry_shortened;
        }
      }
      // Ownership stays with the original creator; new value becomes a
      // candidate for the overwriter's later requests too.
      add_candidates(pair, s.value);
    } else if (s.change_type == Type::kDeleted) {
      auto& stats = out.pairs[pair];
      ++stats.deleter_entities[entities.entity_for(actor)];
      out.domains[actor].deleted_pairs.insert(pair);
      cross_del_apis.insert(api_tag);
      owner.erase(it);
    } else if (s.change_type == Type::kCreated) {
      // Re-creation after expiry/deletion: a fresh pair owned by the actor.
      owner[s.cookie_name] = {actor, s.api};
      const CookiePair fresh{s.cookie_name, actor};
      record_pair(fresh, s.api);
      add_candidates(fresh, s.value);
    }
  }

  if (cross_over_apis.count("doc") != 0) ++totals.sites_doc_overwrite;
  if (cross_over_apis.count("store") != 0) ++totals.sites_store_overwrite;
  if (cross_del_apis.count("doc") != 0) ++totals.sites_doc_delete;
  if (cross_del_apis.count("store") != 0) ++totals.sites_store_delete;

  // ---- cookieStore usage details ----------------------------------------
  for (const auto& s : log.script_sets) {
    if (s.api != CookieSource::kCookieStore) continue;
    totals.store_cookie_names.insert(s.cookie_name);
    ++totals.store_setting_scripts;
    if (!s.setter_domain.empty()) {
      totals.store_script_domains.insert(s.setter_domain);
    }
  }

  // ---- exfiltration detection (§4.3) -------------------------------------
  bool site_doc_exfil = false;
  bool site_store_exfil = false;
  for (const auto& request : log.requests) {
    const std::string initiator = request.initiator_domain.empty()
                                      ? log.site
                                      : request.initiator_domain;
    const auto query_pos = request.url.find('?');
    if (query_pos == std::string::npos) continue;
    const auto params = net::parse_query(request.url.substr(query_pos + 1));
    for (const auto& param : params) {
      for (const auto& segment :
           script::extract_identifier_segments(param.value)) {
        const auto hit = candidates.find(segment);
        if (hit == candidates.end()) continue;
        const CookiePair& pair = hit->second;
        if (pair.name.empty()) continue;  // ambiguous segment
        if (pair.owner_domain == initiator) continue;  // authorized
        auto& stats = out.pairs[pair];
        ++stats.exfiltrator_entities[entities.entity_for(initiator)];
        ++stats.destination_entities[entities.entity_for(
            request.dest_domain)];
        out.domains[initiator].exfiltrated_pairs.insert(pair);
        if (stats.created_via == CookieSource::kCookieStore) {
          site_store_exfil = true;
        } else {
          site_doc_exfil = true;
        }
      }
    }
  }
  if (site_doc_exfil) ++totals.sites_doc_exfil;
  if (site_store_exfil) ++totals.sites_store_exfil;

  // ---- §8 DOM pilot --------------------------------------------------------
  for (const auto& mod : log.dom_mods) {
    if (mod.modifier_domain != log.site) {
      ++totals.sites_with_cross_dom_modification;
      break;
    }
  }

  totals.unique_setter_scripts =
      static_cast<long long>(out.setter_script_urls.size());
  if (options.totals_only) {
    out.pairs.clear();
    out.domains.clear();
    out.setter_script_urls.clear();
    totals.unique_setter_scripts = 0;
  }
  return out;
}

namespace {

/// Unique pairs created through `via`; with `action`, only those with that
/// cross-domain action.
int count_pairs(const std::map<CookiePair, PairStats>& pairs,
                CookieSource via, bool (PairStats::*action)() const) {
  int n = 0;
  for (const auto& [pair, stats] : pairs) {
    const bool is_store = stats.created_via == CookieSource::kCookieStore;
    if ((via == CookieSource::kCookieStore) == is_store &&
        (action == nullptr || (stats.*action)())) {
      ++n;
    }
  }
  return n;
}

}  // namespace

int SiteSummary::pair_count(CookieSource via) const {
  return count_pairs(pairs, via, nullptr);
}

int SiteSummary::exfiltrated_pair_count(CookieSource via) const {
  return count_pairs(pairs, via, &PairStats::exfiltrated);
}

int SiteSummary::overwritten_pair_count(CookieSource via) const {
  return count_pairs(pairs, via, &PairStats::overwritten);
}

int SiteSummary::deleted_pair_count(CookieSource via) const {
  return count_pairs(pairs, via, &PairStats::deleted);
}

namespace {

std::vector<SiteSummary::RankedPair> rank_pairs(
    const std::map<CookiePair, PairStats>& pairs, std::size_t n,
    const std::function<int(const PairStats&)>& key) {
  std::vector<SiteSummary::RankedPair> out;
  for (const auto& [pair, stats] : pairs) {
    if (key(stats) > 0) out.push_back({pair, &stats});
  }
  std::sort(out.begin(), out.end(),
            [&](const SiteSummary::RankedPair& a,
                const SiteSummary::RankedPair& b) {
              const int ka = key(*a.stats);
              const int kb = key(*b.stats);
              if (ka != kb) return ka > kb;
              return a.pair < b.pair;
            });
  if (out.size() > n) out.resize(n);
  return out;
}

std::vector<std::pair<std::string, int>> rank_domains(
    const std::map<std::string, DomainStats>& domains, std::size_t n,
    const std::function<int(const DomainStats&)>& key) {
  std::vector<std::pair<std::string, int>> out;
  for (const auto& [domain, stats] : domains) {
    const int k = key(stats);
    if (k > 0) out.emplace_back(domain, k);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (out.size() > n) out.resize(n);
  return out;
}

}  // namespace

std::vector<SiteSummary::RankedPair> SiteSummary::top_exfiltrated(
    std::size_t n) const {
  return rank_pairs(pairs, n, [](const PairStats& s) {
    return static_cast<int>(s.destination_entities.size());
  });
}

std::vector<SiteSummary::RankedPair> SiteSummary::top_overwritten(
    std::size_t n) const {
  return rank_pairs(pairs, n, [](const PairStats& s) {
    return static_cast<int>(s.overwriter_entities.size());
  });
}

std::vector<SiteSummary::RankedPair> SiteSummary::top_deleted(
    std::size_t n) const {
  return rank_pairs(pairs, n, [](const PairStats& s) {
    return static_cast<int>(s.deleter_entities.size());
  });
}

std::vector<std::pair<std::string, int>> SiteSummary::top_exfiltrator_domains(
    std::size_t n) const {
  return rank_domains(domains, n, [](const DomainStats& s) {
    return static_cast<int>(s.exfiltrated_pairs.size());
  });
}

std::vector<std::pair<std::string, int>> SiteSummary::top_overwriter_domains(
    std::size_t n) const {
  return rank_domains(domains, n, [](const DomainStats& s) {
    return static_cast<int>(s.overwritten_pairs.size());
  });
}

std::vector<std::pair<std::string, int>> SiteSummary::top_deleter_domains(
    std::size_t n) const {
  return rank_domains(domains, n, [](const DomainStats& s) {
    return static_cast<int>(s.deleted_pairs.size());
  });
}

}  // namespace cg::analysis
