// Reproduces Table 1: prevalence of cross-domain cookie actions across
// websites and affected cookie pairs, split by the API that created the
// cookie (document.cookie vs cookieStore).
//
// Paper values:
//   document.cookie: exfiltration 55.7% sites / 5.9% cookies (4,825)
//                    overwriting  31.5% sites / 2.7% cookies (2,212)
//                    deleting      6.3% sites / 1.8% cookies (1,475)
//   cookieStore:     exfiltration  0.7% sites / 16.3% cookies (62)
//                    overwriting / deleting: 0
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace cg;
  using cookies::CookieSource;
  const auto flags = bench::parse_flags(argc, argv, {"threads", "policy"});
  corpus::Corpus corpus(bench::default_params());
  const int threads = bench::crawl_threads(flags);
  bench::print_header("Table 1 — prevalence of cross-domain cookie actions",
                      corpus, threads);

  analysis::Analyzer analyzer(corpus.entities());
  bench::run_measurement_crawl(corpus, analyzer,
                               /*with_faults=*/true, threads, nullptr,
                               bench::crawl_policy(flags));

  const auto& t = analyzer.totals();
  const double n = t.sites_complete;
  const double doc_pairs = analyzer.pair_count(CookieSource::kDocumentCookie);
  const double store_pairs = analyzer.pair_count(CookieSource::kCookieStore);

  std::printf("\nsites analyzed: %d; unique pairs: %.0f (doc) %.0f (store)\n",
              t.sites_complete, doc_pairs, store_pairs);

  struct Row {
    const char* action;
    double paper_sites, paper_cookies;
    double sites, cookies;
    int cookie_count;
  };
  const Row rows[] = {
      {"doc.cookie exfiltration", 55.7, 5.9, 100.0 * t.sites_doc_exfil / n,
       100.0 * analyzer.exfiltrated_pair_count(CookieSource::kDocumentCookie) /
           doc_pairs,
       analyzer.exfiltrated_pair_count(CookieSource::kDocumentCookie)},
      {"doc.cookie overwriting", 31.5, 2.7, 100.0 * t.sites_doc_overwrite / n,
       100.0 * analyzer.overwritten_pair_count(CookieSource::kDocumentCookie) /
           doc_pairs,
       analyzer.overwritten_pair_count(CookieSource::kDocumentCookie)},
      {"doc.cookie deleting", 6.3, 1.8, 100.0 * t.sites_doc_delete / n,
       100.0 * analyzer.deleted_pair_count(CookieSource::kDocumentCookie) /
           doc_pairs,
       analyzer.deleted_pair_count(CookieSource::kDocumentCookie)},
      {"cookieStore exfiltration", 0.7, 16.3, 100.0 * t.sites_store_exfil / n,
       store_pairs > 0
           ? 100.0 *
                 analyzer.exfiltrated_pair_count(CookieSource::kCookieStore) /
                 store_pairs
           : 0.0,
       analyzer.exfiltrated_pair_count(CookieSource::kCookieStore)},
      {"cookieStore overwriting", 0.0, 0.0,
       100.0 * t.sites_store_overwrite / n,
       store_pairs > 0
           ? 100.0 *
                 analyzer.overwritten_pair_count(CookieSource::kCookieStore) /
                 store_pairs
           : 0.0,
       analyzer.overwritten_pair_count(CookieSource::kCookieStore)},
      {"cookieStore deleting", 0.0, 0.0, 100.0 * t.sites_store_delete / n,
       store_pairs > 0
           ? 100.0 * analyzer.deleted_pair_count(CookieSource::kCookieStore) /
                 store_pairs
           : 0.0,
       analyzer.deleted_pair_count(CookieSource::kCookieStore)},
  };

  std::printf("\n  %-26s | %% of websites (paper/meas) | %% of cookies "
              "(paper/meas) | #cookies\n",
              "action");
  std::printf("  %s\n", std::string(94, '-').c_str());
  for (const auto& row : rows) {
    std::printf("  %-26s |        %5.1f / %5.1f       |       %5.1f / %5.1f"
                "       | %d\n",
                row.action, row.paper_sites, row.sites, row.paper_cookies,
                row.cookies, row.cookie_count);
  }
  std::printf("\n");
  return 0;
}
