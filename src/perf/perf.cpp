#include "perf/perf.h"

#include <algorithm>
#include <optional>

#include "cookieguard/deployment.h"
#include "crawler/crawler.h"

namespace cg::perf {

TimingSummary summarize(std::vector<TimeMillis> samples) {
  TimingSummary out;
  if (samples.empty()) return out;
  double sum = 0;
  for (const auto v : samples) sum += static_cast<double>(v);
  out.mean_ms = sum / static_cast<double>(samples.size());
  auto mid = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  out.median_ms = *mid;
  return out;
}

namespace {

struct Collected {
  std::vector<TimeMillis> dcl, interactive, load;
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

Comparison compare_collected(const Collected& normal,
                             const Collected& defended) {
  Comparison out;
  out.normal = {summarize(normal.dcl), summarize(normal.interactive),
                summarize(normal.load)};
  out.guarded = {summarize(defended.dcl), summarize(defended.interactive),
                 summarize(defended.load)};
  out.mean_overhead_ms =
      out.guarded.load_event.mean_ms - out.normal.load_event.mean_ms;
  return out;
}

}  // namespace

Comparison compare_page_load(const corpus::Corpus& corpus, int site_count,
                             const cookieguard::CookieGuardConfig& config,
                             int threads) {
  crawler::Crawler crawl(corpus);
  const Collected normal =
      run_timing_crawl(crawl, site_count, threads, policy::PolicyKind::kNone,
                       /*with_guard=*/false, config);
  const Collected guarded =
      run_timing_crawl(crawl, site_count, threads, policy::PolicyKind::kNone,
                       /*with_guard=*/true, config);
  return compare_collected(normal, guarded);
}

Comparison compare_page_load_policy(const corpus::Corpus& corpus,
                                    int site_count,
                                    policy::PolicyKind policy, int threads) {
  crawler::Crawler crawl(corpus);
  const cookieguard::CookieGuardConfig config;
  const Collected normal =
      run_timing_crawl(crawl, site_count, threads, policy::PolicyKind::kNone,
                       /*with_guard=*/false, config);
  const Collected defended = run_timing_crawl(
      crawl, site_count, threads, policy,
      /*with_guard=*/policy == policy::PolicyKind::kCookieGuard, config);
  return compare_collected(normal, defended);
}

}  // namespace cg::perf
