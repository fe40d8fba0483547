// End-to-end integration tests: corpus → crawl → analysis → CookieGuard,
// asserting the paper's headline effects hold on a small corpus.
#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "analysis/analyzer.h"
#include "cookieguard/cookieguard.h"
#include "crawler/crawler.h"
#include "crawler/deployment.h"

namespace cg {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static constexpr int kSites = 500;

  static const corpus::Corpus& corpus() {
    static const corpus::CorpusParams params = [] {
      corpus::CorpusParams p;
      p.site_count = kSites;
      return p;
    }();
    static const corpus::Corpus instance(params);
    return instance;
  }

  analysis::Analyzer run_crawl(crawler::ExtensionFactory extensions = {}) {
    crawler::Crawler crawler(corpus());
    analysis::Analyzer analyzer(corpus().entities());
    crawler::CrawlOptions options;
    options.fault_plan.reset();
    options.extension_factory = std::move(extensions);
    crawler.crawl(kSites, options, [&](instrument::VisitLog&& log) {
      analyzer.ingest(log);
    });
    return analyzer;
  }
};

TEST_F(IntegrationTest, BaselineMatchesPaperShape) {
  const auto analyzer = run_crawl();
  const auto& t = analyzer.totals();
  const double crawled = t.sites_crawled;
  const double n = t.sites_complete;

  // §5.1: third-party prevalence.
  EXPECT_NEAR(t.sites_with_third_party / crawled, 0.933, 0.04);
  const double avg_tp = double(t.third_party_script_count) / crawled;
  EXPECT_GT(avg_tp, 12.0);
  EXPECT_LT(avg_tp, 26.0);
  // §5.1: ~70% ad/tracking.
  EXPECT_NEAR(double(t.third_party_ad_tracking_count) /
                  double(t.third_party_script_count),
              0.70, 0.08);
  // §5.6: indirect inclusions outnumber direct.
  EXPECT_GT(double(t.indirect_inclusions) / double(t.direct_inclusions), 1.5);

  // §5.2: API usage.
  EXPECT_NEAR(t.sites_using_document_cookie / n, 0.963, 0.04);
  EXPECT_NEAR(t.sites_using_cookie_store / n, 0.028, 0.03);

  // Table 1: cross-domain action prevalence (±8 pts at this corpus size).
  EXPECT_NEAR(t.sites_doc_exfil / n, 0.557, 0.08);
  EXPECT_NEAR(t.sites_doc_overwrite / n, 0.315, 0.08);
  EXPECT_NEAR(t.sites_doc_delete / n, 0.063, 0.04);
  // cookieStore actions are rare and never overwrite/delete.
  EXPECT_LT(t.sites_store_exfil / n, 0.05);
  EXPECT_EQ(t.sites_store_overwrite, 0);
  EXPECT_EQ(t.sites_store_delete, 0);

  // §5.5: overwrite attribute mix: value changes dominate, path changes are
  // rare.
  ASSERT_GT(t.cross_overwrites, 0);
  EXPECT_GT(double(t.overwrite_value_changed) / t.cross_overwrites, 0.6);
  EXPECT_LT(double(t.overwrite_path_changed) / t.cross_overwrites, 0.1);
}

TEST_F(IntegrationTest, CookieGuardBlocksMostCrossDomainActions) {
  const auto baseline = run_crawl();
  crawler::Deployment<cookieguard::CookieGuard> guards(1);
  const auto guarded = run_crawl(guards.factory());

  const auto& b = baseline.totals();
  const auto& g = guarded.totals();
  const double n_b = b.sites_complete;
  const double n_g = g.sites_complete;

  // Figure 5: ~82-86% reductions, not 100% (site-owner full access).
  const double exfil_reduction =
      1.0 - (g.sites_doc_exfil / n_g) / (b.sites_doc_exfil / n_b);
  const double over_reduction =
      1.0 - (g.sites_doc_overwrite / n_g) / (b.sites_doc_overwrite / n_b);
  EXPECT_GT(exfil_reduction, 0.70);
  EXPECT_LT(exfil_reduction, 0.97);
  EXPECT_GT(over_reduction, 0.70);
  EXPECT_GT(g.sites_doc_exfil, 0);  // residual: server-side GTM et al.
  EXPECT_GT(guards.stats().cookies_hidden, 0u);
}

TEST_F(IntegrationTest, StrictIsolationEliminatesResidualOwnerActions) {
  cookieguard::CookieGuardConfig config;
  config.site_owner_full_access = false;
  crawler::Deployment<cookieguard::CookieGuard> guards(1, config);
  const auto guarded = run_crawl(guards.factory());
  const auto& g = guarded.totals();
  // Without the owner policy, the residual cross-domain actions vanish
  // almost entirely (ablation D2 of DESIGN.md).
  EXPECT_LT(g.sites_doc_exfil / double(g.sites_complete), 0.02);
  EXPECT_LT(g.sites_doc_overwrite / double(g.sites_complete), 0.02);
}

TEST_F(IntegrationTest, GhostWrittenShareMatchesShift) {
  const auto analyzer = run_crawl();
  const auto& t = analyzer.totals();
  // Paper (§9): 92% of first-party cookies are ghost-written; our corpus
  // reproduces a strong majority.
  const double ghost_share = double(t.tp_cookies_set) /
                             double(t.tp_cookies_set + t.fp_cookies_set);
  EXPECT_GT(ghost_share, 0.70);
}

TEST_F(IntegrationTest, AttributionMostlyCorrectWithAsyncStacks) {
  const auto analyzer = run_crawl();
  const auto& t = analyzer.totals();
  ASSERT_GT(t.attributed_sets, 0);
  EXPECT_GT(double(t.attribution_correct) / t.attributed_sets, 0.95);
}

TEST_F(IntegrationTest, TopExfiltratedCookieIsGa) {
  const auto analyzer = run_crawl();
  const auto top = analyzer.summary().top_exfiltrated(3);
  ASSERT_FALSE(top.empty());
  // Table 2: _ga (owner googletagmanager.com) leads.
  EXPECT_EQ(top[0].pair.name, "_ga");
}

TEST_F(IntegrationTest, GoogleAnalyticsIsTopExfiltratorDomain) {
  const auto analyzer = run_crawl();
  const auto domains = analyzer.summary().top_exfiltrator_domains(3);
  ASSERT_FALSE(domains.empty());
  EXPECT_EQ(domains[0].first, "google-analytics.com");  // Figure 2
}

// Table 4: the lifecycle timings the analyzer folds from paired fault-free
// crawls, with and without CookieGuard.
class PerfComparisonTest : public ::testing::Test {
 protected:
  struct Timings {
    analysis::TimingSummary dom_content_loaded;
    analysis::TimingSummary dom_interactive;
    analysis::TimingSummary load_event;
  };

  static const corpus::Corpus& corpus() {
    static const corpus::CorpusParams params = [] {
      corpus::CorpusParams p;
      p.site_count = 120;
      return p;
    }();
    static const corpus::Corpus instance(params);
    return instance;
  }

  /// The fault-free crawl of the first `sites` corpus sites; a non-null
  /// `guard` runs policy cookieguard with a CookieGuard so configured.
  static Timings crawl_timings(int sites,
                               const cookieguard::CookieGuardConfig* guard) {
    crawler::Crawler crawler(corpus());
    crawler::CrawlOptions options;
    options.fault_plan.reset();
    std::optional<crawler::Deployment<cookieguard::CookieGuard>> guards;
    if (guard != nullptr) {
      options.policy = policy::PolicyKind::kCookieGuard;
      guards.emplace(options.threads, *guard);
      options.extension_factory = guards->factory();
    }
    analysis::Analyzer analyzer(corpus().entities());
    crawler.crawl(sites, options, [&](instrument::VisitLog&& log) {
      analyzer.ingest(log);
    });
    const auto& t = analyzer.totals();
    return {analysis::summarize(t.dom_content_loaded),
            analysis::summarize(t.dom_interactive),
            analysis::summarize(t.load_event)};
  }
};

TEST_F(PerfComparisonTest, CookieGuardAddsOverhead) {
  const cookieguard::CookieGuardConfig config;
  const Timings normal = crawl_timings(120, nullptr);
  const Timings guarded = crawl_timings(120, &config);
  EXPECT_GT(guarded.load_event.mean_ms - normal.load_event.mean_ms, 0);
  EXPECT_GT(guarded.dom_content_loaded.mean_ms,
            normal.dom_content_loaded.mean_ms);
  // dom_interactive fires before any script executes, so interception
  // cannot slow it: equal in both runs.
  EXPECT_DOUBLE_EQ(guarded.dom_interactive.mean_ms,
                   normal.dom_interactive.mean_ms);
  // Ordering invariants hold in both runs.
  EXPECT_LE(normal.dom_interactive.mean_ms,
            normal.dom_content_loaded.mean_ms);
  EXPECT_LE(normal.dom_content_loaded.mean_ms, normal.load_event.mean_ms);
}

TEST_F(PerfComparisonTest, OverheadScalesWithPerCallCost) {
  cookieguard::CookieGuardConfig cheap;
  cheap.api_overhead_ms = 1;
  cookieguard::CookieGuardConfig expensive;
  expensive.api_overhead_ms = 10;
  const double normal = crawl_timings(60, nullptr).load_event.mean_ms;
  const double a = crawl_timings(60, &cheap).load_event.mean_ms - normal;
  const double b = crawl_timings(60, &expensive).load_event.mean_ms - normal;
  EXPECT_GT(b, a);
}

TEST_F(PerfComparisonTest, MedianReportedFromSameDistribution) {
  const Timings normal = crawl_timings(60, nullptr);
  EXPECT_GT(normal.load_event.median_ms, 0);
  EXPECT_GE(normal.load_event.mean_ms, normal.dom_content_loaded.mean_ms);
}

}  // namespace
}  // namespace cg
