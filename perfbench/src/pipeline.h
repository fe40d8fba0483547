// The benchmark's workloads: crawl -> pack -> analyze -> serve, driven only
// through the repository's public APIs.
//
// Every workload runs the same pipeline; they differ in configuration and
// in which phase gets the measured time:
//
//   crawl_pack     --policy none, 2 crawl threads, the default fault plan,
//                  packed into an in-memory CGAR through CrawlOptions::archive,
//                  then reopened and analyzed. Crawl passes fill the measured
//                  time; between them the packed archive is loaded into a
//                  server and served for one window.
//   crawl_guarded  the same crawl under --policy cookieguard with one
//                  CookieGuard per crawl worker.
//   serve_zipf     the crawl_pack archive is packed during set-up, then a
//                  closed loop of 2 clients replays the default zipfian query
//                  mix against serve::Server with a cache of a quarter of the
//                  archive's sites.
//
// Every workload reports every end-to-end metric, so each also measures the
// stages it does not stress: crawl_* from their serve windows, serve_zipf
// from the crawls and loads of its set-ups.
//
// With tracing on, the run records spans around the benchmark's calls into
// each module (spans.h) and drives extra probes with the crawl's own inputs;
// the per-layer metrics come from that run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int sites = 1000;
  int threads = 2;
  /// Where the traced run writes its spans (Chrome trace JSON); empty = not
  /// written.
  std::string spans_path;
  /// Self-test hook: flip one byte inside the packed archive's block stream
  /// before it is reopened. The output checks must then fail.
  bool corrupt_archive = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> failed_checks;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// The metrics the output line carries: end-to-end (untraced run) or
  /// per-layer (traced run).
  std::vector<Metric> metrics;
  /// Human-readable report (sample counts, layer self times, coverage).
  std::vector<std::string> notes;
};

bool known_workload(const std::string& name);

/// Runs one workload. Never throws for a failed check: failures land in
/// failed_checks and clear `correct`.
RunResult run_workload(const RunOptions& options);

/// A digest of every input the workload's program sees for this seed: the
/// generated corpus blueprints, the fault plan's decisions and the query
/// stream. Equal seeds give equal digests.
std::string inputs_digest(std::uint64_t seed, int sites);

}  // namespace perfbench
