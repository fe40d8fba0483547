// Bounded answer cache for per-site queries.
//
// The server holds one WaveChain, so a `site <rank>` answer is a pure
// function of the rank. Under zipfian traffic a few hundred popular sites
// absorb most per-site lookups; caching their rendered answer bytes turns
// the dominant query cost (block CRC + record decode + fold + render) into
// one shard lock, one map lookup and one string copy. The cache is sharded
// by rank to keep lock hold times off the serving path's critical section.
//
// Policy (deterministic — a pure function of the access sequence, no
// wall-clock, no randomness): strict LRU per shard; each shard holds at
// most max_entries / shards answers. Capacity is counted in entries: an
// answer is a few hundred bytes of fixed fields whatever the site's size.
//
// The cache is semantically transparent: hit or miss, the caller gets the
// same bytes, so query answers are byte-identical at any thread count even
// though concurrent interleavings may populate shards in different orders.
// Counters are atomics exported into obs::MetricsRegistry (serve.cache.*)
// — totals are interleaving-independent, per-shard occupancy is
// diagnostic only.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace cg::serve {

struct CacheConfig {
  /// Total cached answers across all shards; 0 disables caching.
  std::size_t max_entries = 4096;
  /// Lock shards; clamped to [1, max_entries] so every shard holds ≥ 1.
  int shards = 16;
};

/// The answer cache. It caches rendered answers, not blocks; the name
/// stays because perfbench/ reads serve::BlockCache by it.
class BlockCache {
 public:
  using Answer = std::shared_ptr<const std::string>;

  explicit BlockCache(CacheConfig config);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Cached answer for `rank`, or null on miss. Thread-safe; a hit
  /// refreshes the entry's LRU position.
  Answer get(int rank);

  /// Offers an answer. Inserted, evicting the shard's LRU entry if full;
  /// dropped when caching is disabled. An answer already present keeps the
  /// existing entry (refreshed).
  void put(int rank, Answer answer);

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t insertions = 0;
    std::int64_t evictions = 0;
    std::int64_t entries = 0;  // current occupancy
  };
  Stats stats() const;

  /// Exports serve.cache.* counters/gauges into `registry`.
  void export_metrics(obs::MetricsRegistry& registry) const;

  const CacheConfig& config() const { return config_; }

 private:
  struct Entry {
    int rank;
    Answer answer;
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::map<int, std::list<Entry>::iterator> index;
  };

  Shard& shard_for(int rank) {
    return *shards_[static_cast<std::size_t>(rank) % shards_.size()];
  }

  CacheConfig config_;
  std::size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::atomic<std::int64_t> hits_{0};
  mutable std::atomic<std::int64_t> misses_{0};
  mutable std::atomic<std::int64_t> insertions_{0};
  mutable std::atomic<std::int64_t> evictions_{0};
};

}  // namespace cg::serve
