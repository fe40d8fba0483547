// Reproduces Figure 5: cross-domain cookie interactions with and without
// the CookieGuard extension (paired crawl over the same corpus).
//
// Paper: CookieGuard reduces cross-domain overwriting by 82.2%, deletion by
// 86.2%, and exfiltration by 83.2%. The residual comes from the site-owner
// full-access policy (§6.1) — site scripts proxying identifiers (server-side
// GTM, §5.7) and first-party cleanup/rewrite scripts.
#include "bench_util.h"
#include "cookieguard/deployment.h"

int main(int argc, char** argv) {
  using namespace cg;
  const auto flags = bench::parse_flags(argc, argv, {"threads"});
  corpus::Corpus corpus(bench::default_params());
  const int threads = bench::crawl_threads(flags);
  bench::print_header(
      "Figure 5 — cross-domain actions, regular browser vs CookieGuard",
      corpus, threads);

  analysis::Analyzer baseline(corpus.entities());
  bench::run_measurement_crawl(corpus, baseline,
                               /*with_faults=*/false, threads);

  cookieguard::Deployment guards(threads);
  analysis::Analyzer guarded(corpus.entities());
  {
    crawler::Crawler crawler(corpus);
    crawler::CrawlOptions options;
    options.fault_plan.reset();
    options.threads = threads;
    options.extension_factory = guards.factory();
    crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
      guarded.ingest(log);
    });
  }
  const cookieguard::CookieGuard::Stats guard_stats = guards.stats();

  const auto& b = baseline.totals();
  const auto& g = guarded.totals();
  const double nb = b.sites_complete;
  const double ng = g.sites_complete;

  struct Row {
    const char* action;
    double paper_reduction;
    double without, with;
  };
  const Row rows[] = {
      {"exfiltration", 83.2, 100.0 * b.sites_doc_exfil / nb,
       100.0 * g.sites_doc_exfil / ng},
      {"overwriting", 82.2, 100.0 * b.sites_doc_overwrite / nb,
       100.0 * g.sites_doc_overwrite / ng},
      {"deleting", 86.2, 100.0 * b.sites_doc_delete / nb,
       100.0 * g.sites_doc_delete / ng},
  };

  std::printf("\n  %-14s | %% sites w/o ext | %% sites w/ ext | reduction "
              "(paper)\n", "action");
  std::printf("  %s\n", std::string(66, '-').c_str());
  for (const auto& row : rows) {
    const double reduction =
        row.without > 0 ? 100.0 * (1.0 - row.with / row.without) : 0.0;
    std::printf("  %-14s |     %6.1f      |     %6.1f     |  %5.1f%% "
                "(%.1f%%)\n",
                row.action, row.without, row.with, reduction,
                row.paper_reduction);
  }

  std::printf("\n  enforcement stats: %llu cookies hidden from reads, "
              "%llu cross-domain writes blocked,\n  %llu inline accesses "
              "denied\n\n",
              static_cast<unsigned long long>(guard_stats.cookies_hidden),
              static_cast<unsigned long long>(guard_stats.writes_blocked),
              static_cast<unsigned long long>(guard_stats.inline_denied));
  return 0;
}
