#include "serve/cache.h"

#include <algorithm>
#include <utility>

namespace cg::serve {

BlockCache::BlockCache(CacheConfig config) : config_(config) {
  std::size_t shard_count = config_.shards < 1
                                ? 1
                                : static_cast<std::size_t>(config_.shards);
  if (config_.max_entries == 0) {
    shard_count = 1;  // disabled: one empty shard keeps the code path uniform
    per_shard_capacity_ = 0;
  } else {
    shard_count = std::min(shard_count, config_.max_entries);
    per_shard_capacity_ = config_.max_entries / shard_count;
  }
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

BlockCache::Answer BlockCache::get(int rank) {
  Shard& shard = shard_for(rank);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(rank);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // Refresh: splice the entry to the front of the LRU list.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->answer;
}

void BlockCache::put(int rank, Answer answer) {
  if (per_shard_capacity_ == 0) return;
  Shard& shard = shard_for(rank);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(rank);
  if (it != shard.index.end()) {
    // Another thread rendered the same answer first; keep the incumbent.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().rank);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.lru.push_front(Entry{rank, std::move(answer)});
  shard.index[rank] = shard.lru.begin();
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

BlockCache::Stats BlockCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += static_cast<std::int64_t>(shard->lru.size());
  }
  return stats;
}

void BlockCache::export_metrics(obs::MetricsRegistry& registry) const {
  const Stats stats = this->stats();
  registry.add("serve.cache.hits", stats.hits);
  registry.add("serve.cache.misses", stats.misses);
  registry.add("serve.cache.insertions", stats.insertions);
  registry.add("serve.cache.evictions", stats.evictions);
  registry.gauge_max("serve.cache.entries", stats.entries);
  registry.gauge_max("serve.cache.capacity",
                     static_cast<std::int64_t>(per_shard_capacity_ *
                                               shards_.size()));
}

}  // namespace cg::serve
