// Page-load performance comparison (paper §7.3, Table 4).
//
// Crawls a slice of the corpus twice — plain browser vs a defense — and
// summarizes the three lifecycle metrics the paper reports
// (dom_content_loaded, dom_interactive, load_event) as mean and median.
// The per-call interception cost fed into the simulation is itself measured
// by the timed loops in bench/bench_table4_perf.cpp.
#pragma once

#include "analysis/fold.h"
#include "cookieguard/cookieguard.h"
#include "corpus/corpus.h"
#include "policy/partition_policy.h"

namespace cg::perf {

struct Metrics {
  analysis::TimingSummary dom_content_loaded;
  analysis::TimingSummary dom_interactive;
  analysis::TimingSummary load_event;
};

struct Comparison {
  Metrics normal;
  Metrics guarded;
  /// Mean added load-event time, the paper's "average overhead" headline.
  double mean_overhead_ms = 0;
};

/// Runs the paired fault-free crawl over the first `site_count` corpus
/// sites: the plain browser (policy none, no extension) against `policy` —
/// which for kCookieGuard means the jar-identical engine plus the
/// CookieGuard extension configured by `config` (Table 4), and for
/// FPI/CHIPS the partitioned jar alone. kNone compares the plain browser
/// against itself (zero overhead by construction; a determinism probe).
/// `threads` follows CrawlOptions::threads (1 = sequential, 0 = all
/// hardware threads); results are identical at any thread count.
Comparison compare_page_load(
    const corpus::Corpus& corpus, int site_count, policy::PolicyKind policy,
    const cookieguard::CookieGuardConfig& config = {}, int threads = 1);

}  // namespace cg::perf
