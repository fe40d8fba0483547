// One extension deployment for a crawl: an instance per crawl worker.
//
// Extensions are stateful, so the workers of a sharded crawl cannot share
// one; per-visit deterministic extensions (CookieGuard, the filter-list
// blocker) keep N-thread output byte-identical to one thread this way.
#pragma once

#include <memory>
#include <vector>

#include "crawler/crawler.h"
#include "runtime/thread_pool.h"

namespace cg::crawler {

/// `Ext` is a browser::Extension with a `Stats` type that has
/// `merge(const Stats&)` and a `stats()` accessor.
template <typename Ext>
class Deployment {
 public:
  /// `threads` follows CrawlOptions::threads: <= 0 means every hardware
  /// thread. Each worker's instance is built from `args`.
  template <typename... Args>
  explicit Deployment(int threads, const Args&... args) {
    const int workers =
        threads <= 0 ? runtime::ThreadPool::hardware_threads() : threads;
    for (int w = 0; w < workers; ++w) {
      extensions_.push_back(std::make_unique<Ext>(args...));
    }
  }

  /// The factory hands out pointers into this object.
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// A CrawlOptions::extension_factory: worker w gets instance w. The
  /// deployment must outlive every crawl that uses the factory.
  ExtensionFactory factory() {
    return [this](int worker) -> std::vector<browser::Extension*> {
      return {extensions_.at(static_cast<std::size_t>(worker)).get()};
    };
  }

  /// The per-worker counters summed into one crawl-wide tally.
  typename Ext::Stats stats() const {
    typename Ext::Stats total;
    for (const auto& extension : extensions_) total.merge(extension->stats());
    return total;
  }

 private:
  std::vector<std::unique_ptr<Ext>> extensions_;
};

}  // namespace cg::crawler
