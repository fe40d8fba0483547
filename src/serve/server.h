// cgserve's engine: a long-running, concurrent CGAR query server.
//
// PR 4 made the archive the product; this makes it a serving tier. open()
// pays the expensive work once per archive — validate the envelope, fold
// every site block into a SiteSummary (analysis/fold.h), build the
// per-entity index, and render the aggregate answers — and every query
// afterwards is cheap:
//
//   per-site (kSite):  answer cache (serve/cache.h) -> the cached answer
//                      bytes. A miss renders once: footer-index random
//                      access, one-block decode, single-visit fold, dump.
//                      Never a scan.
//   aggregates:        table1/totals/waves return the bytes rendered at
//                      load; top-N queries join a prefix of the full
//                      rankings' rows, rendered at load. Never a walk,
//                      never a re-fold, never a pair-map scan, never a
//                      sort.
//
// The paper-table answers (table1, totals, top-exfiltrated, top-domains and
// the bare waves trend) are report/'s sections of the same fold with a
// "kind" member added, so each is byte for byte what `cgsim query --json`
// writes for that section.
//
// handle_text() is const and thread-safe: archives, summaries, and the
// entity index are immutable after open(); the answer cache locks per
// shard; query counters are atomics. Answers are rendered through
// report::Json with sorted keys, so the response to a given query is
// byte-identical regardless of thread count, interleaving, or cache state —
// the property bench_serve and serve_test assert. (The entity map is the
// builtin static table, so folds need no corpus reconstruction; the
// footer's corpus_seed is kept only as provenance in stats.)
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
#include <optional>
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

  /// Answers one query as a compact single-line JSON object — the serving
  /// path, and the byte string the determinism checks compare. Failures
  /// (rank not in the served wave, corrupt block) come back as
  /// {"error": ..., "kind": ...} so the line protocol never goes silent.
  /// Thread-safe.
  std::string handle_text(const Query& query) const;

  /// handle_text() parsed back into a JSON tree (tests read fields).
  report::Json handle(const Query& query) const;

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

  std::string handle_site(const Query& query) const;
  report::Json handle_entity(const std::string& entity) const;
  report::Json handle_domain_waves(const std::string& domain) const;

  /// Renders the load-time answers below from the per-wave summaries.
  void render_aggregates();

  /// Renders the newest wave's answer for `rank`: materialize the block
  /// through the chain, decode, fold, dump. Nullopt + error when the chain
  /// cannot materialize or decode it.
  std::optional<std::string> render_site(int rank, store::Error* error) const;

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
  std::map<std::string, EntityAggregate> entity_index_;
  // Aggregate answers rendered and dumped once at load: table1, totals and
  // the bare waves trend are returned as stored bytes, and top-N answers
  // join the first n of the full rankings' dumped rows. At 20k sites a
  // per-query pair-map scan costs ~12 ms; returning stored bytes costs a
  // string copy.
  std::string waves_answer_;
  std::string table1_answer_;
  std::string totals_answer_;
  std::vector<std::string> exfiltrated_rows_;  // Table 2, every pair
  std::vector<std::string> domain_rows_;       // Figure 2, every domain
  mutable BlockCache cache_;
  mutable std::array<std::atomic<std::int64_t>, kQueryKindCount>
      queries_by_kind_{};
  mutable std::atomic<std::int64_t> query_errors_{0};
};

}  // namespace cg::serve
