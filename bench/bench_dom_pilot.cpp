// Reproduces the §8 pilot study: cross-domain DOM modification.
//
// Paper: scripts modify, insert, or remove DOM elements they do not own on
// 9.4% of sites.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace cg;
  const auto flags = bench::parse_flags(argc, argv, {"threads", "policy"});
  corpus::Corpus corpus(bench::default_params());
  const int threads = bench::crawl_threads(flags);
  bench::print_header("§8 pilot — cross-domain DOM modification", corpus, threads);

  analysis::Analyzer analyzer(corpus.entities());
  bench::run_measurement_crawl(corpus, analyzer,
                               /*with_faults=*/true, threads, nullptr,
                               bench::crawl_policy(flags));

  const auto& t = analyzer.totals();
  bench::print_row("sites with cross-domain DOM modification", 9.4,
                   100.0 * t.sites_with_cross_dom_modification /
                       t.sites_complete);
  std::printf("\n");
  return 0;
}
