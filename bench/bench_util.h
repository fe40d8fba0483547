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
// trace_recorder_from_args to export the crawl as Chrome trace-event JSON.
//
// Malformed CG_SITES / CG_THREADS / --threads values are a hard error, not
// a silent fallback: a bench that quietly ran with the wrong corpus size
// has produced hours of wrong numbers before anyone notices.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "analysis/analyzer.h"
#include "analysis/archive.h"
#include "cookieguard/deployment.h"
#include "corpus/corpus.h"
#include "crawler/crawler.h"
#include "obs/trace.h"
#include "policy/partition_policy.h"
#include "runtime/thread_pool.h"
#include "store/reader.h"

namespace cg::bench {

/// Strict integer parse: the whole string must be a base-10 integer in
/// [min, max]. Exits with a clear message naming `what` otherwise.
inline int require_int(const char* text, const char* what, int min_value,
                       int max_value) {
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < min_value ||
      value > max_value) {
    std::fprintf(stderr,
                 "error: %s must be an integer in [%d, %d], got \"%s\"\n",
                 what, min_value, max_value, text);
    std::exit(2);
  }
  return static_cast<int>(value);
}

inline int corpus_sites_from_env(int fallback = 20000) {
  if (const char* env = std::getenv("CG_SITES")) {
    return require_int(env, "CG_SITES", 1, INT_MAX);
  }
  return fallback;
}

inline corpus::CorpusParams default_params() {
  corpus::CorpusParams params;
  params.site_count = corpus_sites_from_env();
  return params;
}

/// Worker threads for the measurement crawl: `--threads N` wins, then
/// CG_THREADS=<n>, else every hardware thread. 0 means all hardware
/// threads; non-numeric or negative values abort.
inline int threads_from_args(int argc = 0, char** argv = nullptr) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      const int n = require_int(argv[i + 1], "--threads", 0, INT_MAX);
      return n > 0 ? n : runtime::ThreadPool::hardware_threads();
    }
  }
  if (const char* env = std::getenv("CG_THREADS")) {
    const int n = require_int(env, "CG_THREADS", 0, INT_MAX);
    return n > 0 ? n : runtime::ThreadPool::hardware_threads();
  }
  return runtime::ThreadPool::hardware_threads();
}

/// Partitioning engine for the defense bake-off: `--policy NAME` wins, then
/// CG_POLICY=<name>, else none. Accepts the cgsim grammar
/// (none/cookieguard/fpi/chips); anything else aborts — a bench that
/// silently fell back to the wrong defense has produced hours of wrong
/// numbers before anyone notices.
inline policy::PolicyKind policy_from_args(int argc = 0,
                                           char** argv = nullptr) {
  const char* name = std::getenv("CG_POLICY");
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--policy") == 0) name = argv[i + 1];
  }
  if (name == nullptr) return policy::PolicyKind::kNone;
  const auto kind = policy::parse_policy(name);
  if (!kind) {
    std::fprintf(stderr,
                 "error: --policy/CG_POLICY must be none, cookieguard, fpi, "
                 "or chips, got \"%s\"\n",
                 name);
    std::exit(2);
  }
  return *kind;
}

/// A streaming TraceRecorder for `--trace FILE` (or CG_TRACE=FILE), or null
/// when tracing was not requested. Wire the result into
/// CrawlOptions::trace / run_measurement_crawl; the file is finished when
/// the recorder is destroyed. `--trace-detail full` upgrades from the
/// crawl-level default.
struct BenchTrace {
  // Heap-held so the recorder's stream pointer survives moves of this
  // struct (declared before `recorder` so the stream outlives finish()).
  std::unique_ptr<std::ofstream> out;
  std::unique_ptr<obs::TraceRecorder> recorder;
  obs::TraceRecorder* get() const { return recorder.get(); }
};

inline BenchTrace trace_recorder_from_args(int argc = 0,
                                           char** argv = nullptr) {
  BenchTrace trace;
  const char* path = std::getenv("CG_TRACE");
  obs::TraceConfig config;
  config.detail = obs::Detail::kCrawl;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--trace-detail") == 0 && i + 1 < argc &&
               std::strcmp(argv[i + 1], "full") == 0) {
      config.detail = obs::Detail::kFull;
    }
  }
  if (path == nullptr) return trace;
  trace.out = std::make_unique<std::ofstream>(path);
  if (!*trace.out) {
    std::fprintf(stderr, "error: cannot open trace file %s\n", path);
    std::exit(2);
  }
  trace.recorder =
      std::make_unique<obs::TraceRecorder>(config, trace.out.get());
  return trace;
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
