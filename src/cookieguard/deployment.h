// One CookieGuard deployment for a sharded crawl: a guard per crawl worker.
//
// Extensions are stateful, so the workers of a sharded crawl cannot share
// one guard; enforcement is per-visit deterministic, so a guard per worker
// keeps N-thread output byte-identical to one thread. Every crawl that runs
// CookieGuard (`--policy cookieguard`) installs it through this owner.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "browser/extension.h"
#include "cookieguard/cookieguard.h"

namespace cg::cookieguard {

class Deployment {
 public:
  /// `threads` follows CrawlOptions::threads: <= 0 means every hardware
  /// thread. Each guard gets `config`.
  explicit Deployment(int threads, const CookieGuardConfig& config = {});

  /// The factory hands out pointers into this object.
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// A CrawlOptions::extension_factory: worker w gets guard w. The
  /// deployment must outlive every crawl that uses the factory.
  std::function<std::vector<browser::Extension*>(int worker)> factory();

  /// The per-worker counters summed into one crawl-wide tally.
  CookieGuard::Stats stats() const;

 private:
  std::vector<std::unique_ptr<CookieGuard>> guards_;
};

}  // namespace cg::cookieguard
