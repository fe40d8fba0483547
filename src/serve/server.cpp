#include "serve/server.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "entities/entity_map.h"
#include "fault/fault.h"
#include "report/report.h"
#include "store/record_codec.h"

namespace cg::serve {
namespace {

report::Json error_json(const Query& query, const std::string& detail) {
  report::Json out = report::Json::object();
  out["kind"] = query_kind_name(query.kind);
  out["error"] = detail;
  return out;
}

/// A report/ section as a served answer: the section plus its "kind".
std::string answer(const char* kind, report::Json section) {
  section["kind"] = kind;
  return section.dump();
}

/// The dumped rows of a report/ ranking section.
std::vector<std::string> dumped_rows(const report::Json& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out.push_back(rows.at(i).dump());
  }
  return out;
}

/// {"kind", "n", "rows"} over the first n of `rows`: the bytes
/// report::Json::dump writes for that object (sorted keys, no spaces),
/// joined from rows dumped at load instead of re-rendered per query.
std::string top_answer(std::string_view kind, int n,
                       const std::vector<std::string>& rows) {
  const std::size_t take =
      std::min(static_cast<std::size_t>(std::max(n, 0)), rows.size());
  std::string out = "{\"kind\":\"";
  out += kind;
  out += "\",\"n\":";
  out += std::to_string(n);
  out += ",\"rows\":[";
  for (std::size_t i = 0; i < take; ++i) {
    if (i > 0) out += ',';
    out += rows[i];
  }
  out += "]}";
  return out;
}

/// Settles the memory a cache miss just freed. The miss path frees about a
/// thousand small blocks (decoded log, fold, render tree); glibc's malloc
/// parks them in per-thread fast bins and merges them at the thread's next
/// request of 1 KiB or more. Left alone, that request is usually the copy
/// of a totals or top-N answer, so a query that costs ~1 us carries the
/// miss's cleanup (perfbench serve_zipf aggregate p99 ~35 us instead of
/// ~10 us). One 4 KiB request here bills the merge to the miss, which costs
/// ~0.5 ms anyway; under other allocators it is one malloc/free pair.
void settle_freed_memory() {
  void* volatile block = std::malloc(4096);
  std::free(block);
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

  // Per-entity index over the newest wave's pair map.
  for (const auto& [pair, stats] : server->aggregate().pairs) {
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
  server->render_aggregates();
  return server;
}

std::string Server::handle_site(const Query& query) const {
  const auto fail = [&](const std::string& detail) {
    query_errors_.fetch_add(1, std::memory_order_relaxed);
    return error_json(query, detail).dump();
  };
  const int top = chain_.waves() - 1;
  const std::vector<int>& ranks = chain_.ranks(top);
  if (!std::binary_search(ranks.begin(), ranks.end(), query.rank)) {
    // Not a site of the served wave, so no cache traffic either.
    return fail("rank " + std::to_string(query.rank) + " is not in wave " +
                std::to_string(chain_.archive(top).wave()));
  }
  if (BlockCache::Answer cached = cache_.get(query.rank)) return *cached;
  store::Error error;
  auto answer = render_site(query.rank, &error);
  if (!answer) return fail(error.to_string());  // errors are never cached
  cache_.put(query.rank, std::make_shared<const std::string>(*answer));
  settle_freed_memory();
  return std::move(*answer);
}

std::optional<std::string> Server::render_site(int rank,
                                               store::Error* error) const {
  const int top = chain_.waves() - 1;
  const auto payload = chain_.payload_at(rank, top, error);
  if (!payload) return std::nullopt;
  const auto log = store::decode_site_payload(*payload, error);
  if (!log) return std::nullopt;
  const analysis::SiteSummary folded =
      analysis::fold_visit(entities::EntityMap::builtin(), {}, *log);
  const analysis::Totals& t = folded.totals;

  report::Json out = report::Json::object();
  out["kind"] = "site";
  out["rank"] = rank;
  out["archive"] = top;
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
  return out.dump();
}

void Server::render_aggregates() {
  // Render the aggregate answers once. table1/totals scan the full pair map
  // several times; at 20k sites that is ~12 ms per query if done at query
  // time. The rankings are full deterministic sorts, so a top-N
  // answer is a prefix of the complete rankings rendered here.
  report::Json rows = report::Json::array();
  for (const WaveInfo& info : waves_) {
    report::Json row = report::totals_to_json(info.summary);
    row["wave"] = static_cast<std::int64_t>(info.wave);
    rows.push_back(std::move(row));
  }
  report::Json waves = report::Json::object();
  waves["waves"] = static_cast<std::int64_t>(waves_.size());
  waves["rows"] = std::move(rows);
  waves_answer_ = answer("waves", std::move(waves));

  const analysis::SiteSummary& newest = aggregate();
  table1_answer_ = answer("table1", report::table1_to_json(newest));
  totals_answer_ = answer("totals", report::totals_to_json(newest));
  exfiltrated_rows_ = dumped_rows(
      report::top_exfiltrated_to_json(newest, newest.pairs.size()));
  domain_rows_ = dumped_rows(
      report::top_exfiltrator_domains_to_json(newest, newest.domains.size()));
}

report::Json Server::handle_domain_waves(const std::string& domain) const {
  // Per-domain trend: one map lookup per wave against the precomputed
  // per-wave summaries.
  report::Json rows = report::Json::array();
  for (const WaveInfo& info : waves_) {
    report::Json row = report::Json::object();
    row["wave"] = static_cast<std::int64_t>(info.wave);
    const auto it = info.summary.domains.find(domain);
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
  out["domain"] = domain;
  out["waves"] = static_cast<std::int64_t>(waves_.size());
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

std::string Server::handle_text(const Query& query) const {
  const int kind_index = static_cast<int>(query.kind);
  if (kind_index >= 0 && kind_index < kQueryKindCount) {
    queries_by_kind_[static_cast<std::size_t>(kind_index)].fetch_add(
        1, std::memory_order_relaxed);
  }
  switch (query.kind) {
    case QueryKind::kSite:
      return handle_site(query);
    case QueryKind::kTable1:
      return table1_answer_;
    case QueryKind::kTotals:
      return totals_answer_;
    case QueryKind::kTopExfiltrated:
      return top_answer("top-exfiltrated", query.top_n, exfiltrated_rows_);
    case QueryKind::kTopDomains:
      return top_answer("top-domains", query.top_n, domain_rows_);
    case QueryKind::kEntity:
      return handle_entity(query.entity).dump();
    case QueryKind::kStats:
      return stats_json().dump();
    case QueryKind::kWaves:
      return query.domain.empty() ? waves_answer_
                                  : handle_domain_waves(query.domain).dump();
  }
  query_errors_.fetch_add(1, std::memory_order_relaxed);
  return error_json(query, "unknown query kind").dump();
}

report::Json Server::handle(const Query& query) const {
  // Every answer is a dump(), which parse() always reads back.
  return *report::Json::parse(handle_text(query));
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
