#include "serve/server.h"

#include <algorithm>
#include <utility>

#include "cookies/cookie.h"
#include "entities/entity_map.h"
#include "fault/fault.h"
#include "store/record_codec.h"

namespace cg::serve {
namespace {

using cookies::CookieSource;

report::Json error_json(const Query& query, const std::string& detail) {
  report::Json out = report::Json::object();
  out["kind"] = query_kind_name(query.kind);
  out["error"] = detail;
  return out;
}

report::Json api_breakdown(const analysis::SiteSummary& s, CookieSource via,
                           int sites_exfil, int sites_over, int sites_del,
                           int sites_complete) {
  const double n = sites_complete > 0 ? sites_complete : 1;
  report::Json out = report::Json::object();
  out["pairs"] = s.pair_count(via);
  out["exfiltrated_pairs"] = s.exfiltrated_pair_count(via);
  out["overwritten_pairs"] = s.overwritten_pair_count(via);
  out["deleted_pairs"] = s.deleted_pair_count(via);
  out["sites_exfiltrating"] = sites_exfil;
  out["sites_overwriting"] = sites_over;
  out["sites_deleting"] = sites_del;
  out["pct_sites_exfiltrating"] = 100.0 * sites_exfil / n;
  out["pct_sites_overwriting"] = 100.0 * sites_over / n;
  out["pct_sites_deleting"] = 100.0 * sites_del / n;
  return out;
}

}  // namespace

Server::Server(std::vector<Archive> archives, store::WaveChain chain,
               const ServerConfig& config)
    : archives_(std::move(archives)),
      chain_(std::move(chain)),
      cache_(config.cache) {}

std::unique_ptr<Server> Server::open(const std::vector<std::string>& paths,
                                     const ServerConfig& config,
                                     store::Error* error) {
  std::vector<store::Reader> readers;
  readers.reserve(paths.size());
  for (const std::string& path : paths) {
    auto reader = store::Reader::open(path, error);
    if (!reader) return nullptr;
    readers.push_back(std::move(*reader));
  }
  auto server = from_readers(std::move(readers), config, error);
  if (server != nullptr) {
    for (std::size_t i = 0; i < paths.size(); ++i) {
      server->archives_[i].path = paths[i];
    }
  }
  return server;
}

std::unique_ptr<Server> Server::from_readers(
    std::vector<store::Reader> readers, const ServerConfig& config,
    store::Error* error) {
  std::vector<Archive> archives;
  archives.reserve(readers.size());
  for (auto& reader : readers) {
    archives.push_back(Archive{"<buffer>", std::move(reader)});
  }

  // Link before the archives move into the server: moving the vector keeps
  // its buffer, so the readers the chain borrows stay where they are.
  std::vector<const store::Reader*> chain_readers;
  chain_readers.reserve(archives.size());
  for (const Archive& archive : archives) {
    chain_readers.push_back(&archive.reader);
  }
  auto chain = store::WaveChain::link(std::move(chain_readers), error);
  if (!chain) return nullptr;  // not one base+delta chain: nothing to serve
  std::unique_ptr<Server> server(
      new Server(std::move(archives), std::move(*chain), config));

  // Precompute the aggregates: one full fold per wave at load time, so no
  // query ever walks an archive.
  const entities::EntityMap& entities = entities::EntityMap::builtin();
  for (int w = 0; w < server->chain_.waves(); ++w) {
    WaveInfo info;
    info.wave = server->chain_.archive(w).wave();
    const bool ok = server->chain_.for_each(
        w,
        [&](instrument::VisitLog&& log) {
          info.summary.merge(analysis::fold_visit(entities, {}, log));
        },
        error);
    if (!ok) return nullptr;  // a corrupt or unresolvable chain must not serve
    server->waves_.push_back(std::move(info));
  }
  server->waves_answer_ = server->build_waves();
  const analysis::SiteSummary& newest = server->aggregate();

  // Per-entity index over the newest wave's pair map.
  for (const auto& [pair, stats] : newest.pairs) {
    for (const auto& [entity, n] : stats.exfiltrator_entities) {
      auto& agg = server->entity_index_[entity];
      ++agg.exfiltrated_pairs;
      agg.exfil_site_events += n;
    }
    for (const auto& [entity, n] : stats.destination_entities) {
      ++server->entity_index_[entity].destination_pairs;
    }
    for (const auto& [entity, n] : stats.overwriter_entities) {
      auto& agg = server->entity_index_[entity];
      ++agg.overwritten_pairs;
      agg.overwrite_site_events += n;
    }
    for (const auto& [entity, n] : stats.deleter_entities) {
      auto& agg = server->entity_index_[entity];
      ++agg.deleted_pairs;
      agg.delete_site_events += n;
    }
  }

  // Render the aggregate answers once. table1/totals scan the full pair map
  // (four passes each); at 20k sites that is ~12 ms per query if done at
  // query time. The rankers are full deterministic sorts, so top-N queries
  // are prefix slices of the complete rankings precomputed here.
  server->table1_answer_ = server->build_table1();
  server->totals_answer_ = server->build_totals();
  server->ranked_exfiltrated_ = newest.top_exfiltrated(newest.pairs.size());
  server->ranked_domains_ =
      newest.top_exfiltrator_domains(newest.domains.size());
  return server;
}

std::shared_ptr<const instrument::VisitLog> Server::load_site(
    int rank, store::Error* error) const {
  // Cached under the newest wave's archive index; admission is keyed by
  // the materialized payload size.
  const int top = chain_.waves() - 1;
  const std::vector<int>& ranks = chain_.ranks(top);
  if (!std::binary_search(ranks.begin(), ranks.end(), rank)) {
    // Not a site of the served wave, so no cache traffic either.
    if (error != nullptr) {
      *error = {fault::ArchiveFault::kNone,
                "rank " + std::to_string(rank) + " is not in wave " +
                    std::to_string(chain_.archive(top).wave())};
    }
    return nullptr;
  }
  const auto key = static_cast<std::uint32_t>(top);
  if (auto cached = cache_.get(key, rank)) return cached;
  const auto payload = chain_.payload_at(rank, top, error);
  if (!payload) return nullptr;
  auto log = store::decode_site_payload(*payload, error);
  if (!log) return nullptr;
  auto shared = std::make_shared<const instrument::VisitLog>(std::move(*log));
  cache_.put(key, rank, payload->size(), shared);
  return shared;
}

report::Json Server::handle_site(const Query& query) const {
  store::Error error;
  const auto log = load_site(query.rank, &error);
  if (log == nullptr) {
    return error_json(query, error.code == fault::ArchiveFault::kNone
                                 ? error.detail
                                 : error.to_string());
  }
  const analysis::SiteSummary folded =
      analysis::fold_visit(entities::EntityMap::builtin(), {}, *log);
  const analysis::Totals& t = folded.totals;

  report::Json out = report::Json::object();
  out["kind"] = "site";
  out["rank"] = query.rank;
  out["archive"] = chain_.waves() - 1;
  out["site"] = log->site;
  out["host"] = log->site_host;
  out["complete"] = log->complete();
  out["attempts"] = log->attempts;
  out["failure"] = std::string(fault::failure_class_name(log->failure));

  report::Json records = report::Json::object();
  records["script_sets"] = static_cast<std::int64_t>(log->script_sets.size());
  records["http_sets"] = static_cast<std::int64_t>(log->http_sets.size());
  records["reads"] = static_cast<std::int64_t>(log->reads.size());
  records["requests"] = static_cast<std::int64_t>(log->requests.size());
  records["dom_mods"] = static_cast<std::int64_t>(log->dom_mods.size());
  records["includes"] = static_cast<std::int64_t>(log->includes.size());
  out["records"] = std::move(records);

  report::Json a = report::Json::object();
  a["third_party_scripts"] = t.third_party_script_count;
  a["tp_cookies_set"] = t.tp_cookies_set;
  a["fp_cookies_set"] = t.fp_cookies_set;
  a["pairs_set"] = static_cast<std::int64_t>(folded.pairs.size());
  a["cross_overwrites"] = t.cross_overwrites;
  a["exfiltrated"] = t.sites_doc_exfil + t.sites_store_exfil > 0;
  a["overwritten"] = t.sites_doc_overwrite + t.sites_store_overwrite > 0;
  a["deleted"] = t.sites_doc_delete + t.sites_store_delete > 0;
  out["analysis"] = std::move(a);
  return out;
}

report::Json Server::build_table1() const {
  const analysis::SiteSummary& newest = aggregate();
  const analysis::Totals& t = newest.totals;
  report::Json out = report::Json::object();
  out["kind"] = "table1";
  out["sites_complete"] = t.sites_complete;
  out["document_cookie"] =
      api_breakdown(newest, CookieSource::kDocumentCookie,
                    t.sites_doc_exfil, t.sites_doc_overwrite,
                    t.sites_doc_delete, t.sites_complete);
  out["cookie_store"] =
      api_breakdown(newest, CookieSource::kCookieStore,
                    t.sites_store_exfil, t.sites_store_overwrite,
                    t.sites_store_delete, t.sites_complete);
  return out;
}

report::Json Server::build_totals() const {
  const analysis::Totals& t = aggregate().totals;
  report::Json out = report::Json::object();
  out["kind"] = "totals";
  out["sites_crawled"] = t.sites_crawled;
  out["sites_complete"] = t.sites_complete;
  out["sites_with_third_party"] = t.sites_with_third_party;
  out["third_party_scripts"] = t.third_party_script_count;
  out["third_party_ad_tracking"] = t.third_party_ad_tracking_count;
  out["tp_cookies_set"] = t.tp_cookies_set;
  out["fp_cookies_set"] = t.fp_cookies_set;
  out["direct_inclusions"] = t.direct_inclusions;
  out["indirect_inclusions"] = t.indirect_inclusions;
  out["sites_using_document_cookie"] = t.sites_using_document_cookie;
  out["sites_using_cookie_store"] = t.sites_using_cookie_store;
  out["unique_pairs"] = static_cast<std::int64_t>(aggregate().pairs.size());
  out["unique_setter_scripts"] = t.unique_setter_scripts;
  out["script_set_events"] = t.script_set_events;
  out["cross_overwrites"] = t.cross_overwrites;
  return out;
}

report::Json Server::build_waves() const {
  report::Json rows = report::Json::array();
  for (const WaveInfo& info : waves_) {
    const analysis::Totals& t = info.summary.totals;
    report::Json row = report::Json::object();
    row["wave"] = static_cast<std::int64_t>(info.wave);
    row["sites_crawled"] = t.sites_crawled;
    row["sites_complete"] = t.sites_complete;
    row["sites_with_third_party"] = t.sites_with_third_party;
    row["third_party_scripts"] = t.third_party_script_count;
    row["tp_cookies_set"] = t.tp_cookies_set;
    row["fp_cookies_set"] = t.fp_cookies_set;
    row["unique_pairs"] = static_cast<std::int64_t>(info.summary.pairs.size());
    row["exfiltrated_pairs"] = static_cast<std::int64_t>(
        info.summary.exfiltrated_pair_count(CookieSource::kDocumentCookie) +
        info.summary.exfiltrated_pair_count(CookieSource::kCookieStore));
    row["cross_overwrites"] = t.cross_overwrites;
    row["sites_doc_exfil"] = t.sites_doc_exfil;
    row["sites_store_exfil"] = t.sites_store_exfil;
    rows.push_back(std::move(row));
  }
  report::Json out = report::Json::object();
  out["kind"] = "waves";
  out["waves"] = static_cast<std::int64_t>(waves_.size());
  out["rows"] = std::move(rows);
  return out;
}

report::Json Server::handle_waves(const Query& query) const {
  if (query.domain.empty()) return waves_answer_;
  // Per-domain trend: one map lookup per wave against the precomputed
  // per-wave summaries.
  report::Json rows = report::Json::array();
  for (const WaveInfo& info : waves_) {
    report::Json row = report::Json::object();
    row["wave"] = static_cast<std::int64_t>(info.wave);
    const auto it = info.summary.domains.find(query.domain);
    const bool known = it != info.summary.domains.end();
    row["known"] = known;
    row["exfiltrated_pairs"] = static_cast<std::int64_t>(
        known ? it->second.exfiltrated_pairs.size() : 0);
    row["overwritten_pairs"] = static_cast<std::int64_t>(
        known ? it->second.overwritten_pairs.size() : 0);
    row["deleted_pairs"] = static_cast<std::int64_t>(
        known ? it->second.deleted_pairs.size() : 0);
    rows.push_back(std::move(row));
  }
  report::Json out = report::Json::object();
  out["kind"] = "waves";
  out["domain"] = query.domain;
  out["waves"] = static_cast<std::int64_t>(waves_.size());
  out["rows"] = std::move(rows);
  return out;
}

report::Json Server::handle_top_exfiltrated(int n) const {
  report::Json rows = report::Json::array();
  const std::size_t take =
      std::min(static_cast<std::size_t>(n > 0 ? n : 0),
               ranked_exfiltrated_.size());
  for (std::size_t i = 0; i < take; ++i) {
    const auto& ranked = ranked_exfiltrated_[i];
    report::Json row = report::Json::object();
    row["name"] = ranked.pair.name;
    row["owner"] = ranked.pair.owner_domain;
    row["destination_entities"] =
        static_cast<std::int64_t>(ranked.stats->destination_entities.size());
    row["sites_set"] = ranked.stats->sites_set;
    rows.push_back(std::move(row));
  }
  report::Json out = report::Json::object();
  out["kind"] = "top-exfiltrated";
  out["n"] = n;
  out["rows"] = std::move(rows);
  return out;
}

report::Json Server::handle_top_domains(int n) const {
  report::Json rows = report::Json::array();
  const std::size_t take = std::min(static_cast<std::size_t>(n > 0 ? n : 0),
                                    ranked_domains_.size());
  for (std::size_t i = 0; i < take; ++i) {
    const auto& [domain, count] = ranked_domains_[i];
    report::Json row = report::Json::object();
    row["domain"] = domain;
    row["exfiltrated_cookies"] = count;
    rows.push_back(std::move(row));
  }
  report::Json out = report::Json::object();
  out["kind"] = "top-domains";
  out["n"] = n;
  out["rows"] = std::move(rows);
  return out;
}

report::Json Server::handle_entity(const std::string& entity) const {
  report::Json out = report::Json::object();
  out["kind"] = "entity";
  out["entity"] = entity;
  const auto it = entity_index_.find(entity);
  out["known"] = it != entity_index_.end();
  const EntityAggregate agg =
      it != entity_index_.end() ? it->second : EntityAggregate{};
  out["exfiltrated_pairs"] = agg.exfiltrated_pairs;
  out["destination_pairs"] = agg.destination_pairs;
  out["overwritten_pairs"] = agg.overwritten_pairs;
  out["deleted_pairs"] = agg.deleted_pairs;
  out["exfil_site_events"] = agg.exfil_site_events;
  out["overwrite_site_events"] = agg.overwrite_site_events;
  out["delete_site_events"] = agg.delete_site_events;
  return out;
}

report::Json Server::handle(const Query& query) const {
  const int kind_index = static_cast<int>(query.kind);
  if (kind_index >= 0 && kind_index < kQueryKindCount) {
    queries_by_kind_[static_cast<std::size_t>(kind_index)].fetch_add(
        1, std::memory_order_relaxed);
  }
  switch (query.kind) {
    case QueryKind::kSite: {
      report::Json out = handle_site(query);
      if (out.find("error") != nullptr) {
        query_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      return out;
    }
    case QueryKind::kTable1:
      return table1_answer_;
    case QueryKind::kTotals:
      return totals_answer_;
    case QueryKind::kTopExfiltrated:
      return handle_top_exfiltrated(query.top_n);
    case QueryKind::kTopDomains:
      return handle_top_domains(query.top_n);
    case QueryKind::kEntity:
      return handle_entity(query.entity);
    case QueryKind::kStats:
      return stats_json();
    case QueryKind::kWaves:
      return handle_waves(query);
  }
  query_errors_.fetch_add(1, std::memory_order_relaxed);
  return error_json(query, "unknown query kind");
}

std::string Server::handle_text(const Query& query) const {
  return handle(query).dump();
}

report::Json Server::stats_json() const {
  report::Json out = report::Json::object();
  out["kind"] = "stats";

  report::Json archives = report::Json::array();
  for (const Archive& archive : archives_) {
    report::Json a = report::Json::object();
    a["path"] = archive.path;
    a["sites"] = archive.reader.site_count();
    a["bytes"] = static_cast<std::int64_t>(archive.reader.file_size());
    a["corpus_seed"] =
        static_cast<std::int64_t>(archive.reader.corpus_seed());
    a["kind"] = std::string(store::archive_kind_name(archive.reader.kind()));
    a["policy"] =
        std::string(store::archive_policy_name(archive.reader.policy()));
    a["wave"] = static_cast<std::int64_t>(archive.reader.wave());
    if (archive.reader.kind() == store::ArchiveKind::kDelta) {
      a["inherited"] =
          static_cast<std::int64_t>(archive.reader.inherited_ranks().size());
    }
    archives.push_back(std::move(a));
  }
  out["archives"] = std::move(archives);
  out["sites"] = site_count();
  out["waves"] = static_cast<std::int64_t>(waves_.size());

  report::Json queries = report::Json::object();
  for (int k = 0; k < kQueryKindCount; ++k) {
    queries[std::string(query_kind_name(static_cast<QueryKind>(k)))] =
        queries_by_kind_[static_cast<std::size_t>(k)].load(
            std::memory_order_relaxed);
  }
  queries["errors"] = query_errors_.load(std::memory_order_relaxed);
  out["queries"] = std::move(queries);

  const BlockCache::Stats cache = cache_.stats();
  report::Json c = report::Json::object();
  c["hits"] = cache.hits;
  c["misses"] = cache.misses;
  c["insertions"] = cache.insertions;
  c["evictions"] = cache.evictions;
  c["rejected_admission"] = cache.rejected_admission;
  c["entries"] = cache.entries;
  out["cache"] = std::move(c);
  return out;
}

void Server::export_metrics(obs::MetricsRegistry& registry) const {
  for (int k = 0; k < kQueryKindCount; ++k) {
    // The prefix literal stays inline in the call so cglint M1 can match it
    // against the serve.queries.* wildcard in lint/metrics.txt.
    registry.add("serve.queries." +
                     std::string(query_kind_name(static_cast<QueryKind>(k))),
                 queries_by_kind_[static_cast<std::size_t>(k)].load(
                     std::memory_order_relaxed));
  }
  registry.add("serve.queries.errors",
               query_errors_.load(std::memory_order_relaxed));
  cache_.export_metrics(registry);
}

}  // namespace cg::serve
