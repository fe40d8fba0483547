// Defense bake-off: the paper's evaluation tables re-run under each
// cookie-partitioning policy (src/policy/).
//
// The paper evaluates one defense — CookieGuard — against the status-quo
// first-party jar. This bench asks the comparative question: on the same
// corpus, what do Firefox First-Party Isolation and CHIPS partitioned
// cookies cost and catch? For each policy it reproduces:
//   * Table 3's axis: major/minor breakage on a 100-site sample,
//     paired against the no-defense baseline,
//   * Table 4's axis: mean load-event overhead vs the plain browser,
//   * Table 5's axis: cross-domain manipulation — how much of it the
//     defense actually blocks (engine refusals + extension vetoes +
//     cookies hidden from reads) and how much still reaches the jar,
// and prints one matrix row per policy, plus a markdown copy of the table
// for EXPERIMENTS.md. A last `filter-list` row puts the §2.1 EasyList-style
// blocker (src/baselines/) on the manipulation axis only — it has no
// partitioning policy to pair breakage or overhead with, so those columns
// read n/a — and the bench reports the scripts and requests it blocked.
//
// The expected shape IS the paper's argument (§6): FPI and CHIPS partition
// *between* top-level sites, so they neither break nor protect the
// first-party jar — in-jar cross-domain overwriting and deletion sail
// through both. Only CookieGuard, which partitions *within* the jar by
// script origin, blocks the manipulation the paper measures, at the cost
// of the Table 3 breakage it quantifies.
#include <optional>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "bench_util.h"
#include "breakage/breakage.h"
#include "cookieguard/deployment.h"
#include "perf/perf.h"

namespace {

using namespace cg;

struct MatrixRow {
  std::string label;  // the policy name, or "filter-list"
  // Cost axes; unset (printed n/a) for the filter-list row.
  std::optional<double> breakage_minor_pct;  // sites with any minor regression
  std::optional<double> breakage_major_pct;  // sites with any major regression
  std::optional<double> overhead_ms;  // mean load-event delta vs plain browser
  // Manipulation axis (Table 5): what the defense stopped...
  long long writes_blocked = 0;   // engine refusals + extension vetoes
  long long cookies_hidden = 0;   // cookies filtered out of reads
  long long partitioned_stores = 0;  // cookies diverted into partitions
  // ...and what still reached analysis.
  double doc_overwrite_pct = 0;  // sites with cross-domain overwriting
  double doc_delete_pct = 0;     // sites with cross-domain deletion
  double doc_exfil_pct = 0;      // sites with cross-domain exfiltration
};

/// Table 5 axis: the measurement crawl under `kind` — with CookieGuard
/// deployed for kCookieGuard — plus `blocker` when non-null (one shared
/// instance, so that crawl runs on one thread).
void measure_manipulation(const corpus::Corpus& corpus,
                          policy::PolicyKind kind, int threads,
                          baselines::FilterListBlocker* blocker,
                          MatrixRow& row) {
  crawler::Crawler crawler(corpus);
  crawler::CrawlOptions options;
  options.threads = threads;
  options.policy = kind;
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  std::optional<cookieguard::Deployment> guards;
  if (kind == policy::PolicyKind::kCookieGuard) {
    guards.emplace(threads);
    options.extension_factory = guards->factory();
  }
  if (blocker != nullptr) options.extra_extensions.push_back(blocker);
  analysis::Analyzer analyzer(corpus.entities());
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    analyzer.ingest(log);
  });

  row.writes_blocked = metrics.counter("policy.writes_blocked");
  if (guards) {
    row.writes_blocked +=
        static_cast<long long>(guards->stats().writes_blocked);
  }
  row.cookies_hidden = metrics.counter("cookieguard.cookies_hidden");
  row.partitioned_stores = metrics.counter("policy.partitioned_stores");

  const auto& t = analyzer.totals();
  const double n = std::max(1, t.sites_complete);
  row.doc_overwrite_pct = 100.0 * t.sites_doc_overwrite / n;
  row.doc_delete_pct = 100.0 * t.sites_doc_delete / n;
  row.doc_exfil_pct = 100.0 * t.sites_doc_exfil / n;
}

MatrixRow evaluate_policy(const corpus::Corpus& corpus,
                          policy::PolicyKind kind, int threads) {
  MatrixRow row;
  row.label = policy::to_string(kind);

  // ---- Table 3 axis: breakage on the paper's 100-site sample. ----------
  // kCookieGuard pairs the jar-identical engine with the strict extension
  // (the paper's default deployment); the others run bare.
  breakage::BreakageEvaluator evaluator(corpus);
  const auto sample =
      evaluator.sample_sites(100, std::min(10000, corpus.size()));
  const auto breakage_summary = evaluator.summarize(
      sample,
      kind == policy::PolicyKind::kCookieGuard ? breakage::GuardMode::kStrict
                                               : breakage::GuardMode::kOff,
      kind);
  row.breakage_minor_pct =
      100.0 * breakage_summary.sites_minor / breakage_summary.sites;
  row.breakage_major_pct =
      100.0 * breakage_summary.sites_major / breakage_summary.sites;

  // ---- Table 4 axis: paired fault-free load-timing crawl. ---------------
  row.overhead_ms =
      perf::compare_page_load_policy(corpus, corpus.size(), kind, threads)
          .mean_overhead_ms;

  measure_manipulation(corpus, kind, threads, nullptr, row);
  return row;
}

/// `value` as "%.1f" plus `suffix`, or "n/a" when unmeasured.
std::string cell(std::optional<double> value, const char* suffix = "") {
  if (!value) return "n/a";
  char text[32];
  std::snprintf(text, sizeof text, "%.1f%s", *value, suffix);
  return text;
}

void print_matrix(const std::vector<MatrixRow>& rows) {
  std::printf("\n-- defense bake-off matrix --\n");
  std::printf("  %-12s %7s %7s %9s %9s %9s %11s %8s %8s %8s\n", "policy",
              "minor%", "major%", "ovhd ms", "blocked", "hidden", "partition'd",
              "overwr%", "delete%", "exfil%");
  for (const auto& row : rows) {
    std::printf(
        "  %-12s %7s %7s %9s %9lld %9lld %11lld %8.1f %8.1f %8.1f\n",
        row.label.c_str(), cell(row.breakage_minor_pct).c_str(),
        cell(row.breakage_major_pct).c_str(), cell(row.overhead_ms).c_str(),
        row.writes_blocked, row.cookies_hidden, row.partitioned_stores,
        row.doc_overwrite_pct, row.doc_delete_pct, row.doc_exfil_pct);
  }

  // Markdown copy, ready to paste into EXPERIMENTS.md.
  std::printf("\n-- markdown (EXPERIMENTS.md) --\n");
  std::printf(
      "| policy | breakage minor | breakage major | load overhead (ms) | "
      "manipulations blocked | cookies hidden | partitioned stores | "
      "overwrite sites | delete sites | exfil sites |\n");
  std::printf("|---|---|---|---|---|---|---|---|---|---|\n");
  for (const auto& row : rows) {
    std::printf(
        "| %s | %s | %s | %s | %lld | %lld | %lld | %.1f%% | "
        "%.1f%% | %.1f%% |\n",
        row.label.c_str(), cell(row.breakage_minor_pct, "%").c_str(),
        cell(row.breakage_major_pct, "%").c_str(),
        cell(row.overhead_ms).c_str(), row.writes_blocked,
        row.cookies_hidden, row.partitioned_stores, row.doc_overwrite_pct,
        row.doc_delete_pct, row.doc_exfil_pct);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_flags(argc, argv, {"threads"});
  corpus::Corpus corpus(bench::default_params());
  const int threads = bench::crawl_threads(flags);
  bench::print_header(
      "Defense bake-off — CookieGuard vs FPI vs CHIPS vs none "
      "(Tables 3/4/5 per policy)",
      corpus, threads);

  std::vector<MatrixRow> rows;
  for (const auto kind :
       {policy::PolicyKind::kNone, policy::PolicyKind::kCookieGuard,
        policy::PolicyKind::kFirstPartyIsolation, policy::PolicyKind::kChips}) {
    std::printf("evaluating policy %s...\n",
                std::string(policy::to_string(kind)).c_str());
    rows.push_back(evaluate_policy(corpus, kind, threads));
  }
  // The §2.1 filter-list baseline, on the manipulation axis only.
  std::printf("evaluating filter-list...\n");
  baselines::FilterListBlocker filter_list;
  MatrixRow filter_row;
  filter_row.label = "filter-list";
  measure_manipulation(corpus, policy::PolicyKind::kNone, threads,
                       &filter_list, filter_row);
  rows.push_back(filter_row);
  print_matrix(rows);
  std::printf(
      "\n  filter-list blocked %llu script inclusions and %llu requests "
      "(the vendor functionality it removes).\n",
      static_cast<unsigned long long>(filter_list.stats().scripts_blocked),
      static_cast<unsigned long long>(filter_list.stats().requests_blocked));

  std::printf(
      "\n  reading: FPI/CHIPS partition BETWEEN top-level sites, so they "
      "neither break the\n  first-party jar nor protect it — in-jar "
      "cross-domain overwriting/deletion match the\n  none row. Only "
      "CookieGuard partitions WITHIN the jar (per script origin): it "
      "blocks\n  the Table 5 manipulation at the price of the Table 3 "
      "breakage.\n\n");
  return 0;
}
