// cgserve's engine: a long-running, concurrent CGAR query server.
//
// PR 4 made the archive the product; this makes it a serving tier. open()
// pays the expensive work once per archive — validate the envelope, fold
// every site block into a SiteSummary (analysis/fold.h), build the
// per-entity index, and render the aggregate answers — and every query
// afterwards is cheap:
//
//   per-site (kSite):  footer-index random access -> hot block cache ->
//                      one-block decode + single-visit fold. Never a scan.
//   aggregates:        table1/totals return answers rendered at load;
//                      top-N queries slice full precomputed rankings.
//                      Never a walk, never a re-fold, never a pair-map scan.
//
// handle() is const and thread-safe: archives, summaries, and the entity
// index are immutable after open(); the block cache locks per shard; query
// counters are atomics. Answers are rendered to report::Json with sorted
// keys, so the response to a given query is byte-identical regardless of
// thread count, interleaving, or cache state — the property bench_serve
// and serve_test assert. (The entity map is the builtin static table, so
// folds need no corpus reconstruction; the footer's corpus_seed is kept
// only as provenance in stats.)
//
// The archive list is one base+delta wave chain (store::WaveChain::link
// validates the provenance linkage), exactly as `cgsim query` reads it: a
// single full archive is a one-link chain, and a list that is not one
// chain — two full archives, a delta first, a policy-mixed list — does not
// serve. Each wave is folded at load time into its own summary; the
// `waves` query serves the resulting trend table (optionally filtered to
// one domain's stats), the aggregate queries answer over the *newest*
// wave, and kSite lookups materialize the newest wave through the chain.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/fold.h"
#include "report/json.h"
#include "serve/cache.h"
#include "serve/query.h"
#include "store/chain.h"
#include "store/reader.h"

namespace cg::serve {

struct ServerConfig {
  CacheConfig cache;
};

/// One entity's cross-site footprint, precomputed from the aggregate
/// summary's pair maps at load time.
struct EntityAggregate {
  int exfiltrated_pairs = 0;  // unique pairs this entity exfiltrated
  int destination_pairs = 0;  // unique pairs exfiltrated *to* this entity
  int overwritten_pairs = 0;
  int deleted_pairs = 0;
  long long exfil_site_events = 0;  // per-site event counts, summed
  long long overwrite_site_events = 0;
  long long delete_site_events = 0;
};

class Server {
 public:
  /// Opens and indexes the archives at `paths`. Null (with `error` naming
  /// the taxonomy class) if any archive fails validation or its site
  /// blocks do not decode — a serving tier must not come up over a corrupt
  /// corpus.
  static std::unique_ptr<Server> open(const std::vector<std::string>& paths,
                                      const ServerConfig& config,
                                      store::Error* error = nullptr);

  /// Same, over already-validated readers (tests, benches packing
  /// in-memory archives).
  static std::unique_ptr<Server> from_readers(
      std::vector<store::Reader> readers, const ServerConfig& config,
      store::Error* error = nullptr);

  int archive_count() const { return static_cast<int>(archives_.size()); }
  /// Sites in the newest wave.
  int site_count() const { return chain_.site_count(chain_.waves() - 1); }

  /// The precomputed aggregate of the newest wave.
  const analysis::SiteSummary& aggregate() const {
    return waves_.back().summary;
  }

  /// Answers one query. Always returns a JSON object; failures (unknown
  /// rank, corrupt block) come back as {"error": ..., "kind": ...} so the
  /// line protocol never goes silent. Thread-safe.
  report::Json handle(const Query& query) const;

  /// handle() rendered as a compact single-line JSON string — the byte
  /// string the determinism checks compare.
  std::string handle_text(const Query& query) const;

  /// Server introspection: archives, per-kind query counters, cache stats.
  report::Json stats_json() const;

  /// Exports serve.* counters (queries by kind, cache) into `registry`.
  void export_metrics(obs::MetricsRegistry& registry) const;

  const BlockCache& cache() const { return cache_; }

 private:
  struct Archive {
    std::string path;
    store::Reader reader;
  };

  Server(std::vector<Archive> archives, store::WaveChain chain,
         const ServerConfig& config);

  report::Json handle_site(const Query& query) const;
  report::Json handle_top_exfiltrated(int n) const;
  report::Json handle_top_domains(int n) const;
  report::Json handle_entity(const std::string& entity) const;
  report::Json handle_waves(const Query& query) const;

  // Load-time renderers for the precomputed answers below.
  report::Json build_table1() const;
  report::Json build_totals() const;
  report::Json build_waves() const;

  /// The newest wave's log of `rank`, through the cache. Null + error when
  /// the rank is not in that wave or the chain cannot materialize it.
  std::shared_ptr<const instrument::VisitLog> load_site(
      int rank, store::Error* error) const;

  std::vector<Archive> archives_;
  /// The validated base+delta chain over archives_ (borrows their readers;
  /// archives_ never reallocates after construction) and one folded
  /// summary per wave, oldest first.
  const store::WaveChain chain_;
  struct WaveInfo {
    std::uint32_t wave = 0;
    analysis::SiteSummary summary;
  };
  std::vector<WaveInfo> waves_;
  report::Json waves_answer_;
  std::map<std::string, EntityAggregate> entity_index_;
  // Aggregate answers rendered once at load: table1/totals are returned as
  // copies, top-N queries slice the full precomputed rankings. At 20k sites
  // a per-query pair-map scan costs ~12 ms; a copy costs microseconds.
  report::Json table1_answer_;
  report::Json totals_answer_;
  std::vector<analysis::SiteSummary::RankedPair> ranked_exfiltrated_;
  std::vector<std::pair<std::string, int>> ranked_domains_;
  mutable BlockCache cache_;
  mutable std::array<std::atomic<std::int64_t>, kQueryKindCount>
      queries_by_kind_{};
  mutable std::atomic<std::int64_t> query_errors_{0};
};

}  // namespace cg::serve
