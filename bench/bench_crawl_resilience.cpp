// Crawl-pipeline resilience benchmark: throughput cost and health of the
// fault-injection + retry layer.
//
// Crawls the corpus twice — faults disabled, then the default fault plan —
// and reports visits/sec for both, the retry overhead (extra attempts per
// site), and the emergent exclusion rate against the paper's 25.4%
// (5,083 of 20,000 sites lacked a complete log pair, §4.2).
//
// The final line is machine-readable: `BENCH {...}` JSON for the perf
// trajectory tracker.
#include <chrono>

#include "bench_util.h"
#include "report/json.h"

namespace {

struct TimedCrawl {
  cg::crawler::CrawlHealth health;
  double seconds = 0;
  double visits_per_sec = 0;
};

TimedCrawl run(const cg::corpus::Corpus& corpus, bool faults, int threads) {
  cg::crawler::Crawler crawler(corpus);
  cg::crawler::CrawlOptions options;
  if (!faults) options.fault_plan.reset();
  options.threads = threads;

  TimedCrawl out;
  const auto start = std::chrono::steady_clock::now();
  out.health = crawler.crawl(corpus.size(), options,
                             [](cg::instrument::VisitLog&&) {});
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  // Throughput counts attempts the pipeline executed, visits delivered.
  out.visits_per_sec =
      out.seconds > 0 ? out.health.sites_attempted / out.seconds : 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cg;
  const auto flags = bench::parse_flags(argc, argv, {"threads"});
  corpus::Corpus corpus(bench::default_params());
  const int threads = bench::crawl_threads(flags);
  bench::print_header("Crawl resilience — fault injection + retry overhead",
                      corpus, threads);

  const TimedCrawl clean = run(corpus, /*faults=*/false, threads);
  const TimedCrawl faulty = run(corpus, /*faults=*/true, threads);

  const auto& health = faulty.health;
  const double retry_overhead =
      health.sites_attempted > 0
          ? static_cast<double>(health.total_attempts) / health.sites_attempted
          : 1.0;

  std::printf("\n  %-34s %10.1f visits/sec (%.2fs)\n", "faults off",
              clean.visits_per_sec, clean.seconds);
  std::printf("  %-34s %10.1f visits/sec (%.2fs)\n", "faults on",
              faulty.visits_per_sec, faulty.seconds);
  std::printf("  %-34s %10.2f attempts/site\n", "retry overhead",
              retry_overhead);
  std::printf("  %-34s %10d of %d\n", "sites recovered by retries",
              health.sites_recovered,
              health.sites_recovered + health.sites_excluded);
  bench::print_row("excluded (no complete log pair)", 25.4,
                   100.0 * health.exclusion_rate());

  std::printf("\n  exclusions by failure class:\n");
  for (int c = 0; c < fault::kFailureClassCount; ++c) {
    if (health.exclusions[c] == 0) continue;
    std::printf("    %-22s %6d\n",
                std::string(fault::failure_class_name(
                                static_cast<fault::FailureClass>(c)))
                    .c_str(),
                health.exclusions[c]);
  }

  auto json = report::Json::object();
  json["bench"] = "crawl_resilience";
  json["sites"] = corpus.size();
  json["threads"] = threads;
  json["visits_per_sec_faults_off"] = clean.visits_per_sec;
  json["visits_per_sec_faults_on"] = faulty.visits_per_sec;
  json["retry_overhead_attempts_per_site"] = retry_overhead;
  json["exclusion_rate"] = health.exclusion_rate();
  json["recovery_rate"] = health.recovery_rate();
  json["sites_retained"] = health.sites_retained;
  json["sites_degraded"] = health.sites_degraded;
  std::printf("\nBENCH %s\n", json.dump().c_str());
  return 0;
}
