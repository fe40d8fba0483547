#include "perf/perf.h"

#include <optional>

#include "cookieguard/deployment.h"
#include "crawler/crawler.h"

namespace cg::perf {
namespace {

struct Collected {
  std::vector<TimeMillis> dcl, interactive, load;

  Metrics summarize() const {
    return {analysis::summarize(dcl), analysis::summarize(interactive),
            analysis::summarize(load)};
  }
};

/// One fault-free timing crawl under a policy engine, optionally with a
/// CookieGuard deployment (the timings are identical at any thread count).
Collected run_timing_crawl(const crawler::Crawler& crawl, int site_count,
                           int threads, policy::PolicyKind policy,
                           bool with_guard,
                           const cookieguard::CookieGuardConfig& config) {
  Collected collected;
  crawler::CrawlOptions options;
  options.fault_plan.reset();
  options.threads = threads;
  options.policy = policy;
  std::optional<cookieguard::Deployment> guards;
  if (with_guard) {
    guards.emplace(threads, config);
    options.extension_factory = guards->factory();
  }
  crawl.crawl(site_count, options,
              [&](instrument::VisitLog&& log) {
                collected.dcl.push_back(log.landing_timings.dom_content_loaded);
                collected.interactive.push_back(
                    log.landing_timings.dom_interactive);
                collected.load.push_back(log.landing_timings.load_event);
              });
  return collected;
}

}  // namespace

Comparison compare_page_load(const corpus::Corpus& corpus, int site_count,
                             policy::PolicyKind policy,
                             const cookieguard::CookieGuardConfig& config,
                             int threads) {
  crawler::Crawler crawl(corpus);
  const Collected normal =
      run_timing_crawl(crawl, site_count, threads, policy::PolicyKind::kNone,
                       /*with_guard=*/false, config);
  const Collected defended = run_timing_crawl(
      crawl, site_count, threads, policy,
      /*with_guard=*/policy == policy::PolicyKind::kCookieGuard, config);
  Comparison out;
  out.normal = normal.summarize();
  out.guarded = defended.summarize();
  out.mean_overhead_ms =
      out.guarded.load_event.mean_ms - out.normal.load_event.mean_ms;
  return out;
}

}  // namespace cg::perf
