// Measures what the observability subsystem costs the crawl.
//
//   1. Disabled path (the default): no TraceRecorder, no MetricsRegistry —
//      every emission helper is one thread-local pointer test. This is the
//      configuration every other bench and the paper-reproduction pipeline
//      runs in, so its sites/sec must stay within 2% of the pre-obs
//      baseline (EXPERIMENTS.md "Crawl scaling" table; override with
//      CG_BASELINE_SITES_PER_SEC=<n> to enforce against a measured value —
//      the bench exits nonzero on >2% regression against it).
//   2. Null-sink microbench: ns per emission call with no scope bound.
//   3. Enabled paths, for scale: metrics only, crawl-detail trace, and
//      full-detail trace, all streamed to a null sink file.
#include <chrono>
#include <cstdio>
#include <fstream>

#include "bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace cg;

double crawl_sites_per_sec(const corpus::Corpus& corpus,
                           crawler::CrawlOptions& options) {
  crawler::Crawler crawler(corpus);
  analysis::Analyzer analyzer(corpus.entities());
  const auto start = std::chrono::steady_clock::now();
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    analyzer.ingest(log);
  });
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return seconds > 0 ? corpus.size() / seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_flags(argc, argv, {"threads"});
  corpus::Corpus corpus(bench::default_params());
  const int threads = bench::crawl_threads(flags);
  bench::print_header("observability overhead (src/obs/)", corpus, threads);

  // 1. Disabled path — what every non-traced crawl pays. One untimed
  // warmup crawl first so cold caches don't masquerade as obs overhead.
  crawler::CrawlOptions options;
  options.threads = threads;
  crawl_sites_per_sec(corpus, options);
  const double off = crawl_sites_per_sec(corpus, options);
  std::printf("\n  tracing off (null sink):        %8.1f sites/sec\n", off);

  // 2. Null-sink microbench: emission helpers with no ObsScope bound.
  {
    constexpr int kCalls = 50'000'000;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kCalls; ++i) {
      obs::metric_add("bench.counter");
      obs::span(obs::Detail::kFull, "bench", "span", i, 1);
    }
    const double ns =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - start)
            .count() /
        (2.0 * kCalls);
    std::printf("  null-sink emission:             %8.2f ns/call\n", ns);
  }

  // 3. Enabled paths, streamed to a discard file.
  std::ofstream devnull("/dev/null");
  {
    obs::MetricsRegistry metrics;
    options.metrics = &metrics;
    const double v = crawl_sites_per_sec(corpus, options);
    std::printf("  metrics only:                   %8.1f sites/sec (%+.1f%%)\n",
                v, off > 0 ? 100.0 * (v - off) / off : 0.0);
    options.metrics = nullptr;
  }
  {
    obs::TraceRecorder recorder({obs::Detail::kCrawl, false}, &devnull);
    options.trace = &recorder;
    const double v = crawl_sites_per_sec(corpus, options);
    std::printf("  trace (crawl detail):           %8.1f sites/sec (%+.1f%%)\n",
                v, off > 0 ? 100.0 * (v - off) / off : 0.0);
    options.trace = nullptr;
  }
  {
    obs::TraceRecorder recorder({obs::Detail::kFull, false}, &devnull);
    obs::MetricsRegistry metrics;
    options.trace = &recorder;
    options.metrics = &metrics;
    const double v = crawl_sites_per_sec(corpus, options);
    std::printf("  trace (full) + metrics:         %8.1f sites/sec (%+.1f%%)\n",
                v, off > 0 ? 100.0 * (v - off) / off : 0.0);
    options.trace = nullptr;
    options.metrics = nullptr;
  }

  // Regression gate against a recorded pre-obs baseline, when provided.
  const double baseline = cli::env_double("CG_BASELINE_SITES_PER_SEC", 0);
  if (baseline > 0) {
    const double regression = 100.0 * (baseline - off) / baseline;
    std::printf("\n  vs baseline %.1f sites/sec: %+.1f%% (gate: <2%% loss)\n",
                baseline, -regression);
    if (regression > 2.0) {
      std::fprintf(stderr,
                   "FAIL: tracing-off crawl regressed %.1f%% vs baseline\n",
                   regression);
      return 1;
    }
  }
  return 0;
}
