// Quickstart: crawl a small synthetic corpus, measure cross-domain cookie
// abuse, then turn CookieGuard on and watch it stop.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <algorithm>
#include <cstdio>

#include "analysis/analyzer.h"
#include "cookieguard/cookieguard.h"
#include "corpus/corpus.h"
#include "crawler/crawler.h"
#include "crawler/deployment.h"

int main() {
  using namespace cg;

  // 1. Generate a synthetic web of 1,000 sites (the full reproduction uses
  //    20,000; the benches do that).
  corpus::CorpusParams params;
  params.site_count = 1000;
  corpus::Corpus corpus(params);
  crawler::Crawler crawler(corpus);

  std::printf("Generated %d sites, %zu catalog scripts.\n\n", corpus.size(),
              corpus.catalog().size());

  // 2. Crawl with the measurement extension only (paper §4) and analyze.
  analysis::Analyzer baseline(corpus.entities());
  crawler::CrawlOptions options;
  options.fault_plan.reset();  // clean crawl: no injected faults
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    baseline.ingest(log);
  });

  const auto& t = baseline.totals();
  const double n = t.sites_complete;
  std::printf("== Plain browser ==\n");
  std::printf("sites crawled ................ %d\n", t.sites_crawled);
  std::printf("sites w/ 3rd-party scripts ... %.1f%%\n",
              100.0 * t.sites_with_third_party / t.sites_crawled);
  std::printf("cross-domain exfiltration .... %.1f%% of sites\n",
              100.0 * t.sites_doc_exfil / n);
  std::printf("cross-domain overwriting ..... %.1f%% of sites\n",
              100.0 * t.sites_doc_overwrite / n);
  std::printf("cross-domain deletion ........ %.1f%% of sites\n",
              100.0 * t.sites_doc_delete / n);

  // 3. Same crawl with CookieGuard enforcing per-script-origin isolation.
  crawler::Deployment<cookieguard::CookieGuard> guards(options.threads);
  analysis::Analyzer guarded(corpus.entities());
  options.extension_factory = guards.factory();
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    guarded.ingest(log);
  });

  const auto& g = guarded.totals();
  std::printf("\n== With CookieGuard ==\n");
  std::printf("cross-domain exfiltration .... %.1f%% of sites\n",
              100.0 * g.sites_doc_exfil / n);
  std::printf("cross-domain overwriting ..... %.1f%% of sites\n",
              100.0 * g.sites_doc_overwrite / n);
  std::printf("cross-domain deletion ........ %.1f%% of sites\n",
              100.0 * g.sites_doc_delete / n);
  std::printf("cookies hidden from readers .. %llu\n",
              static_cast<unsigned long long>(guards.stats().cookies_hidden));
  std::printf("cross-domain writes blocked .. %llu\n",
              static_cast<unsigned long long>(guards.stats().writes_blocked));

  std::printf("avg TP scripts/site .......... %.1f\n",
              double(t.third_party_script_count) / t.sites_crawled);
  std::printf("TP ad/tracking share ......... %.1f%%\n",
              100.0 * t.third_party_ad_tracking_count /
                  std::max(1LL, t.third_party_script_count));
  std::printf("indirect/direct ratio ........ %.2f\n",
              double(t.indirect_inclusions) / std::max(1LL, t.direct_inclusions));
  std::printf("doc.cookie sites ............. %.1f%%\n",
              100.0 * t.sites_using_document_cookie / n);
  std::printf("cookieStore sites ............ %.1f%%\n",
              100.0 * t.sites_using_cookie_store / n);
  const analysis::SiteSummary& summary = baseline.summary();
  constexpr auto kDoc = cookies::CookieSource::kDocumentCookie;
  constexpr auto kStore = cookies::CookieSource::kCookieStore;
  std::printf("unique cookie pairs .......... %d (doc) %d (store)\n",
              summary.pair_count(kDoc), summary.pair_count(kStore));
  std::printf("exfiltrated pairs ............ %d (doc) %d (store)\n",
              summary.exfiltrated_pair_count(kDoc),
              summary.exfiltrated_pair_count(kStore));
  std::printf("avg cookies/site ............. %.1f TP, %.1f FP\n",
              double(t.tp_cookies_set) / n, double(t.fp_cookies_set) / n);
  std::printf("DOM cross-mod sites .......... %.1f%%\n",
              100.0 * t.sites_with_cross_dom_modification / n);

  const auto top = summary.top_exfiltrator_domains(5);
  std::printf("\nTop exfiltrator domains (plain browser):\n");
  for (const auto& [domain, count] : top) {
    std::printf("  %-28s %d unique cookies\n", domain.c_str(), count);
  }
  return 0;
}
