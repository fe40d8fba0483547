// Reproduces the §5.1 prevalence statistics and the §5.6 inclusion-path
// breakdown:
//   * 93.3% of sites embed ≥1 third-party script in the main frame,
//   * 19 distinct third-party scripts per site on average,
//   * 70% of third-party scripts are advertising/tracking,
//   * 15 third-party vs 4 first-party cookies set per site,
//   * indirect inclusions outnumber direct by 2.5x; 33% of indirect
//     third-party scripts are advertising/tracking.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace cg;
  const auto flags = bench::parse_flags(
      argc, argv, {"threads", "policy", "trace", "trace-detail"});
  corpus::Corpus corpus(bench::default_params());
  const int threads = bench::crawl_threads(flags);
  bench::print_header(
      "§5.1 / §5.6 — prevalence of third-party scripts in the main frame",
      corpus, threads);

  analysis::Analyzer analyzer(corpus.entities());
  const auto trace = cli::open_trace(flags, "CG_TRACE");
  bench::run_measurement_crawl(corpus, analyzer, /*with_faults=*/true,
                               threads, trace.recorder.get(),
                               bench::crawl_policy(flags));

  const auto& t = analyzer.totals();
  const double crawled = t.sites_crawled;

  std::printf("\nsites crawled: %d, with complete logs: %d (paper: "
              "20,000 / 14,917)\n\n",
              t.sites_crawled, t.sites_complete);

  bench::print_row("sites with >=1 third-party script",
                   93.3, 100.0 * t.sites_with_third_party / crawled);
  bench::print_row("distinct third-party scripts per site (avg)", 19.0,
                   double(t.third_party_script_count) / crawled, "");
  bench::print_row("third-party scripts that are ad/tracking", 70.0,
                   100.0 * double(t.third_party_ad_tracking_count) /
                       double(t.third_party_script_count));
  bench::print_row("third-party cookies set per site (avg)", 15.0,
                   double(t.tp_cookies_set) / t.sites_complete, "");
  bench::print_row("first-party cookies set per site (avg)", 4.0,
                   double(t.fp_cookies_set) / t.sites_complete, "");

  std::printf("\n-- §5.6 inclusion paths (third-party scripts) --\n");
  bench::print_row("indirect / direct inclusion ratio", 2.5,
                   double(t.indirect_inclusions) /
                       double(t.direct_inclusions), "x");
  bench::print_row("indirect inclusions that are ad/tracking", 33.0,
                   100.0 * double(t.indirect_ad_tracking) /
                       double(t.indirect_inclusions));
  std::printf("\n");
  return 0;
}
