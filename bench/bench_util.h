// Shared helpers for the experiment-reproduction binaries.
//
// Every bench crawls the synthetic corpus (default: the paper's 20,000
// sites; override with CG_SITES=<n> for quick runs) and prints the same
// rows/series as the corresponding paper table or figure, with the paper's
// reported value alongside for comparison.
//
// Crawls shard across worker threads (`--threads N` argument, CG_THREADS
// env, default: all hardware threads) — byte-identical output at any
// thread count, see src/runtime/. Pass `--trace FILE` to any bench using
// cli::open_trace to export the crawl as Chrome trace-event JSON.
//
// Flags parse through src/cli/, as cgsim's do. An unknown flag or a
// malformed CG_SITES / CG_THREADS / --threads value is a hard error, not a
// silent fallback: a bench that quietly ran with the wrong corpus size has
// produced hours of wrong numbers before anyone notices.
#pragma once

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/archive.h"
#include "cli/flags.h"
#include "cookieguard/deployment.h"
#include "corpus/corpus.h"
#include "crawler/crawler.h"
#include "obs/trace.h"
#include "policy/partition_policy.h"
#include "runtime/thread_pool.h"
#include "store/reader.h"

namespace cg::bench {

/// The bench's command line, accepting only the value flags in `values`
/// (of threads, policy, trace, trace-detail). Anything else exits 2 with an
/// "error: " message, like a malformed CG_* setting.
inline cli::Flags parse_flags(int argc, char** argv,
                              std::vector<std::string_view> values) {
  return cli::Flags::parse("error", argc, argv, 1,
                           {.values = std::move(values)});
}

inline corpus::CorpusParams default_params() {
  corpus::CorpusParams params;
  params.site_count = cli::env_int("CG_SITES", 20000, 1);
  return params;
}

/// Worker threads for the measurement crawl: `--threads N` wins, then
/// CG_THREADS=<n>, else every hardware thread. 0 means all hardware
/// threads.
inline int crawl_threads(const cli::Flags& flags) {
  const int n = flags.get_int("threads", 0, 0, INT_MAX, "CG_THREADS");
  return n > 0 ? n : runtime::ThreadPool::hardware_threads();
}

/// Partitioning engine for the defense bake-off: `--policy NAME` wins, then
/// CG_POLICY=<name>, else none. Accepts the cgsim grammar
/// (none/cookieguard/fpi/chips).
inline policy::PolicyKind crawl_policy(const cli::Flags& flags) {
  return cli::policy_kind(flags, "CG_POLICY");
}

inline void print_header(const char* title, const corpus::Corpus& corpus,
                         int threads = 1) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("corpus: %d sites, seed 0x%llX, %zu catalog scripts"
              ", %d crawl thread%s\n",
              corpus.size(),
              static_cast<unsigned long long>(corpus.params().seed),
              corpus.catalog().size(), threads, threads == 1 ? "" : "s");
  std::printf("================================================================\n");
}

/// CG_ARCHIVE=<file.cgar>: replay a packed archive (cgsim pack) through the
/// analyzer instead of crawling live. Only the plain measurement crawl —
/// faults on, policy none — is archived, so that is the only configuration
/// the archive can substitute for; provenance in the footer (corpus seed,
/// site count, fault-plan seed) is checked against what the live crawl
/// would have used, and any mismatch is a hard error rather than hours of
/// silently-wrong numbers. Returns true when the archive was consumed.
inline bool analyzer_from_archive_env(const corpus::Corpus& corpus,
                                      analysis::Analyzer& analyzer) {
  const char* path = std::getenv("CG_ARCHIVE");
  if (path == nullptr) return false;
  store::Error error;
  const auto reader = store::Reader::open(path, &error);
  if (!reader) {
    std::fprintf(stderr, "error: CG_ARCHIVE %s rejected (%s)\n", path,
                 error.to_string().c_str());
    std::exit(2);
  }
  if (reader->kind() != store::ArchiveKind::kFull) {
    std::fprintf(stderr,
                 "error: CG_ARCHIVE %s is a %s archive — benches replay "
                 "full archives only (materialize the wave through cgsim "
                 "query --archive <chain> instead)\n",
                 path,
                 std::string(store::archive_kind_name(reader->kind()))
                     .c_str());
    std::exit(2);
  }
  // The recorded policy is hard provenance, same as the seeds: the archive
  // substitutes for the *plain* measurement crawl, so an archive packed
  // under any partitioning policy is the wrong dataset.
  if (reader->policy() != store::ArchivePolicy::kNone) {
    std::fprintf(stderr,
                 "error: CG_ARCHIVE %s was packed under --policy %s; the "
                 "measurement crawl it substitutes for runs with no "
                 "partitioning policy — repack without --policy\n",
                 path,
                 std::string(store::archive_policy_name(reader->policy()))
                     .c_str());
    std::exit(2);
  }
  if (reader->corpus_seed() != corpus.params().seed ||
      reader->site_count() != corpus.size()) {
    std::fprintf(stderr,
                 "error: CG_ARCHIVE %s was packed from a different corpus "
                 "(%d sites, seed 0x%llX; this run wants %d sites, "
                 "seed 0x%llX)\n",
                 path, reader->site_count(),
                 static_cast<unsigned long long>(reader->corpus_seed()),
                 corpus.size(),
                 static_cast<unsigned long long>(corpus.params().seed));
    std::exit(2);
  }
  crawler::Crawler crawler(corpus);
  const fault::FaultPlan plan = crawler.plan_for(crawler::CrawlOptions{});
  const std::uint64_t expected_fault_seed =
      plan.enabled() ? plan.params().seed : 0;
  if (reader->fault_seed() != expected_fault_seed) {
    std::fprintf(stderr,
                 "error: CG_ARCHIVE %s was packed under a different fault "
                 "plan (seed 0x%llX, expected 0x%llX) — repack without "
                 "--no-faults\n",
                 path, static_cast<unsigned long long>(reader->fault_seed()),
                 static_cast<unsigned long long>(expected_fault_seed));
    std::exit(2);
  }
  if (!analysis::analyze_archive(*reader, analyzer, &error)) {
    std::fprintf(stderr, "error: CG_ARCHIVE %s is corrupt (%s)\n", path,
                 error.to_string().c_str());
    std::exit(2);
  }
  return true;
}

/// Runs the measurement crawl under `policy` into `analyzer`; kCookieGuard
/// deploys CookieGuard on every crawl worker. A non-null `trace` recorder
/// receives the crawl's virtual-time trace. With CG_ARCHIVE set, the plain
/// configuration (policy none, faults on, no trace) replays the archive
/// instead of crawling; other configurations — fault-free comparison crawls
/// or policies the archive does not represent — always run live.
inline void run_measurement_crawl(
    const corpus::Corpus& corpus, analysis::Analyzer& analyzer,
    bool with_faults = true, int threads = 1,
    obs::TraceRecorder* trace = nullptr,
    policy::PolicyKind policy = policy::PolicyKind::kNone) {
  if (with_faults && trace == nullptr &&
      policy == policy::PolicyKind::kNone &&
      analyzer_from_archive_env(corpus, analyzer)) {
    return;
  }
  crawler::Crawler crawler(corpus);
  crawler::CrawlOptions options;
  if (!with_faults) options.fault_plan.reset();
  options.threads = threads;
  options.trace = trace;
  options.policy = policy;
  std::optional<cookieguard::Deployment> guards;
  if (policy == policy::PolicyKind::kCookieGuard) {
    guards.emplace(threads);
    options.extension_factory = guards->factory();
  }
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    analyzer.ingest(log);
  });
}

inline void print_row(const char* label, double paper, double measured,
                      const char* unit = "%") {
  std::printf("  %-46s paper %7.1f%-2s  measured %7.1f%-2s\n", label, paper,
              unit, measured, unit);
}

}  // namespace cg::bench
