// Reproduces Figure 2: top-20 script-hosting domains involved in
// cross-domain cookie exfiltration, ranked by number of unique cookies
// exfiltrated.
//
// Paper headline: google-analytics.com leads (3.3% of the 82k cookies);
// RTB exchanges (doubleclick.net, amazon-adsystem.com, pubmatic.com) follow.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace cg;
  const auto flags = bench::parse_flags(argc, argv, {"threads", "policy"});
  corpus::Corpus corpus(bench::default_params());
  const int threads = bench::crawl_threads(flags);
  bench::print_header(
      "Figure 2 — top 20 cross-domain exfiltrator script domains", corpus, threads);

  analysis::Analyzer analyzer(corpus.entities());
  bench::run_measurement_crawl(corpus, analyzer,
                               /*with_faults=*/true, threads, nullptr,
                               bench::crawl_policy(flags));

  const double total_pairs =
      analyzer.pair_count(cookies::CookieSource::kDocumentCookie) +
      analyzer.pair_count(cookies::CookieSource::kCookieStore);

  std::printf("\n  %-30s %10s %10s\n", "script domain", "#cookies",
              "% of all");
  std::printf("  %s\n", std::string(54, '-').c_str());
  for (const auto& [domain, count] : analyzer.top_exfiltrator_domains(20)) {
    std::printf("  %-30s %10d %9.2f%%  %s\n", domain.c_str(), count,
                100.0 * count / total_pairs,
                std::string(static_cast<std::size_t>(
                                50.0 * count /
                                analyzer.top_exfiltrator_domains(1)[0].second),
                            '#')
                    .c_str());
  }
  std::printf("\n  paper: google-analytics.com #1 at 3.3%% of all cookies, "
              "followed by RTB\n  exchanges (doubleclick.net, "
              "amazon-adsystem.com, pubmatic.com).\n\n");
  return 0;
}
