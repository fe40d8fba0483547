// Partition-keyed cookie storage: the browser's cookie database as a map
// from a deterministic partition key to an ordinary RFC 6265 jar.
//
// Storage carries no policy. *Which* partition an operation lands in is
// decided entirely above this layer (src/policy/); each partition is a full
// CookieJar with its own limits and LRU eviction, exactly as before the
// storage/policy split. The default partition (empty key) is the classic
// single first-party jar — Browser::jar() returns it, so code written
// against the one-jar model keeps working unchanged.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>

#include "cookies/cookie_jar.h"

namespace cg::cookies {

/// A partition key. The policy engines build keys like "" (unpartitioned),
/// "fpi:<firstPartyDomain>", "chips:<top-level-site>", or
/// "frame:<frame-origin>"; the store treats them as opaque. Ordered
/// (std::map) so iteration is deterministic.
using PartitionKey = std::string;

/// The default partition: the pre-policy single first-party jar.
inline constexpr std::string_view kDefaultPartition = "";

class PartitionedJarStore {
 public:
  /// The jar for `key`, created empty on first use.
  CookieJar& jar(const PartitionKey& key) { return jars_[key]; }

  /// The jar for `key` if it exists, else null — read paths use this to
  /// avoid materialising empty partitions (which would make reads mutate
  /// the store's shape).
  const CookieJar* find(const PartitionKey& key) const {
    const auto it = jars_.find(key);
    return it == jars_.end() ? nullptr : &it->second;
  }
  CookieJar* find(const PartitionKey& key) {
    const auto it = jars_.find(key);
    return it == jars_.end() ? nullptr : &it->second;
  }

  /// The classic single jar (empty partition key).
  CookieJar& default_jar() { return jar(PartitionKey(kDefaultPartition)); }

  /// Number of materialised partitions (including empty-but-touched ones).
  std::size_t partition_count() const { return jars_.size(); }

  /// Total live+expired cookies across all partitions.
  std::size_t total_cookies() const {
    std::size_t n = 0;
    for (const auto& [key, jar] : jars_) n += jar.size();
    return n;
  }

  /// Deterministic iteration over materialised partitions, key order.
  const std::map<PartitionKey, CookieJar>& partitions() const {
    return jars_;
  }

  /// Drops the partition for `key` and its cookies (no-op when absent).
  void erase(const PartitionKey& key) { jars_.erase(key); }

  void clear() { jars_.clear(); }

 private:
  std::map<PartitionKey, CookieJar> jars_;
};

}  // namespace cg::cookies
