// The §7 evaluation: Figure 5, Table 3, Table 4 and the defense bake-off
// matrix, read from one crawl per configuration.
//
// The paper evaluates CookieGuard with paired crawls, with and without the
// extension. This bench crawls each cookie-partitioning policy (none,
// cookieguard, fpi, chips; src/policy/) once fault-free and once under the
// default fault plan, plus the §2.1 EasyList-style blocker
// (cookieguard/filter_list.h) once under the fault plan: nine crawls. Every
// table is a view over their Analyzer totals:
//   * Figure 5 — cross-domain actions, fault-free none vs cookieguard.
//     Paper: CookieGuard reduces overwriting by 82.2%, deletion by 86.2% and
//     exfiltration by 83.2%. The residual comes from the site-owner
//     full-access policy (§6.1) — site scripts proxying identifiers
//     (server-side GTM, §5.7) and first-party cleanup/rewrite scripts.
//   * Table 3 — breakage on a random sample of 100 sites from the top 10k
//     (the paper's manual evaluation, here executable functionality probes).
//     Paper, strict CookieGuard: 1%/11% minor/major SSO and 3%/3%
//     functionality; entity grouping + per-site domain policies reduce
//     breakage to ~3%.
//   * Table 4 — page-load timings of the fault-free none and cookieguard
//     crawls, as mean / median:
//        DOM Content Loaded  1659/946 ms  ->  1896/1020 ms
//        DOM Interactive     1464/842 ms  ->  1702/911  ms
//        Load Event          3197/2008 ms ->  3635/2136 ms   (~ +0.3 s mean)
//     bench_table4_perf times the interception primitives behind that cost.
//   * The bake-off matrix — one row per policy: Table 3's breakage axis,
//     Table 4's load-event overhead vs the plain browser (fault-free
//     crawls), and Table 5's manipulation axis (faulted crawls): how much of
//     it the defense blocks (engine refusals + extension vetoes + cookies
//     hidden from reads) and how much still reaches the jar. The
//     filter-list row has no partitioning policy to pair breakage or
//     overhead with, so those columns read n/a.
//
// The expected shape IS the paper's argument (§6): FPI and CHIPS partition
// *between* top-level sites, so they neither break nor protect the
// first-party jar — in-jar cross-domain overwriting and deletion sail
// through both. Only CookieGuard, which partitions *within* the jar by
// script origin, blocks the manipulation the paper measures, at the cost
// of the Table 3 breakage it quantifies.
#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "breakage/breakage.h"

namespace {

using namespace cg;
using policy::PolicyKind;

constexpr PolicyKind kPolicies[] = {PolicyKind::kNone,
                                    PolicyKind::kCookieGuard,
                                    PolicyKind::kFirstPartyIsolation,
                                    PolicyKind::kChips};

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

using FilterList = crawler::Deployment<cookieguard::FilterListBlocker>;

/// Table 5 axis: the faulted measurement crawl under `kind`, or with
/// `filter_list` on every worker when non-null.
MatrixRow manipulation_row(const corpus::Corpus& corpus, std::string label,
                           PolicyKind kind, int threads,
                           FilterList* filter_list = nullptr) {
  MatrixRow row;
  row.label = std::move(label);
  obs::MetricsRegistry metrics;
  analysis::Analyzer analyzer(corpus.entities());
  const auto guard_stats = bench::run_measurement_crawl(
      corpus, analyzer, /*with_faults=*/true, threads, nullptr, kind,
      &metrics, filter_list);

  row.writes_blocked = metrics.counter("policy.writes_blocked") +
                       static_cast<long long>(guard_stats.writes_blocked);
  row.cookies_hidden = metrics.counter("cookieguard.cookies_hidden");
  row.partitioned_stores = metrics.counter("policy.partitioned_stores");

  const auto& t = analyzer.totals();
  const double n = std::max(1, t.sites_complete);
  row.doc_overwrite_pct = 100.0 * t.sites_doc_overwrite / n;
  row.doc_delete_pct = 100.0 * t.sites_doc_delete / n;
  row.doc_exfil_pct = 100.0 * t.sites_doc_exfil / n;
  return row;
}

void print_section(const char* title) { std::printf("\n## %s\n", title); }

void print_fig5(const analysis::Totals& b, const analysis::Totals& g,
                const cookieguard::CookieGuard::Stats& guard_stats) {
  print_section(
      "Figure 5 — cross-domain actions, regular browser vs CookieGuard");
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
}

void print_table3(const breakage::BreakageEvaluator& evaluator,
                  const std::vector<int>& sample, int top) {
  using breakage::GuardMode;
  print_section("Table 3 — website breakage under CookieGuard");
  std::printf("\nsample: %zu sites from the top %d\n", sample.size(), top);

  static const char* kAspects[] = {"navigation", "sso", "appearance",
                                   "functionality"};
  for (const auto mode :
       {GuardMode::kOff, GuardMode::kStrict, GuardMode::kEntityGrouping,
        GuardMode::kGroupingPlusPolicies}) {
    const auto summary = evaluator.summarize(sample, mode);
    std::printf("\n-- %s --\n", breakage::to_string(mode));
    std::printf("  %-14s %8s %8s\n", "aspect", "minor", "major");
    for (int aspect = 0; aspect < 4; ++aspect) {
      std::printf("  %-14s %7.1f%% %7.1f%%\n", kAspects[aspect],
                  100.0 * summary.minor[aspect] / summary.sites,
                  100.0 * summary.major[aspect] / summary.sites);
    }
    std::printf("  sites with any major breakage: %.1f%%\n",
                100.0 * summary.sites_major / summary.sites);
  }

  std::printf("\n  paper: strict mode shows 1%% minor / 11%% major SSO and "
              "3%%/3%% functionality\n  breakage; the entity whitelist + "
              "domain policies reduce breakage to 3%%.\n\n");
}

void print_metric(const char* name, double paper_mean_n, double paper_med_n,
                  double paper_mean_g, double paper_med_g,
                  const std::vector<TimeMillis>& normal_samples,
                  const std::vector<TimeMillis>& guarded_samples) {
  const auto normal = analysis::summarize(normal_samples);
  const auto guarded = analysis::summarize(guarded_samples);
  std::printf("  %-20s | %7.0f / %-7.0f (paper %4.0f/%-4.0f) | %7.0f / %-7.0f"
              " (paper %4.0f/%-4.0f)\n",
              name, normal.mean_ms, double(normal.median_ms), paper_mean_n,
              paper_med_n, guarded.mean_ms, double(guarded.median_ms),
              paper_mean_g, paper_med_g);
}

void print_table4(const analysis::Totals& normal,
                  const analysis::Totals& guarded) {
  print_section("Table 4 — page-load performance (mean / median ms)");
  std::printf("\n  %-20s | %-38s | %s\n", "metric", "Normal",
              "CookieGuard");
  std::printf("  %s\n", std::string(100, '-').c_str());
  print_metric("DOM Content Loaded", 1659, 946, 1896, 1020,
               normal.dom_content_loaded, guarded.dom_content_loaded);
  print_metric("DOM Interactive", 1464, 842, 1702, 911,
               normal.dom_interactive, guarded.dom_interactive);
  print_metric("Load Event", 3197, 2008, 3635, 2136, normal.load_event,
               guarded.load_event);
  std::printf("\n  mean overhead on load event: %.0f ms (paper: ~300 ms "
              "average overhead)\n\n",
              analysis::summarize(guarded.load_event).mean_ms -
                  analysis::summarize(normal.load_event).mean_ms);
}

/// `value` as "%.1f" plus `suffix`, or "n/a" when unmeasured.
std::string cell(std::optional<double> value, const char* suffix = "") {
  if (!value) return "n/a";
  char text[32];
  std::snprintf(text, sizeof text, "%.1f%s", *value, suffix);
  return text;
}

void print_matrix(const std::vector<MatrixRow>& rows,
                  const cookieguard::FilterListBlocker::Stats& filter_list) {
  print_section(
      "Defense bake-off — CookieGuard vs FPI vs CHIPS vs none "
      "(Tables 3/4/5 per policy)");
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
  std::printf(
      "\n  filter-list blocked %llu script inclusions and %llu requests "
      "(the vendor functionality it removes).\n",
      static_cast<unsigned long long>(filter_list.scripts_blocked),
      static_cast<unsigned long long>(filter_list.requests_blocked));

  std::printf(
      "\n  reading: FPI/CHIPS partition BETWEEN top-level sites, so they "
      "neither break the\n  first-party jar nor protect it — in-jar "
      "cross-domain overwriting/deletion match the\n  none row. Only "
      "CookieGuard partitions WITHIN the jar (per script origin): it "
      "blocks\n  the Table 5 manipulation at the price of the Table 3 "
      "breakage.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_flags(argc, argv, {"threads"});
  corpus::Corpus corpus(bench::default_params());
  const int threads = bench::crawl_threads(flags);
  bench::print_header(
      "§7 evaluation — Figure 5, Tables 3/4 and the defense bake-off, "
      "one crawl per configuration",
      corpus, threads);

  // Fault-free crawls, one per policy, in kPolicies order: Figure 5,
  // Table 4 and the matrix's overhead column.
  std::vector<analysis::Totals> fault_free;
  cookieguard::CookieGuard::Stats guard_stats;
  for (const auto kind : kPolicies) {
    std::printf("crawling policy %s fault-free...\n",
                std::string(policy::to_string(kind)).c_str());
    analysis::Analyzer analyzer(corpus.entities());
    const auto stats = bench::run_measurement_crawl(
        corpus, analyzer, /*with_faults=*/false, threads, nullptr, kind);
    if (kind == PolicyKind::kCookieGuard) guard_stats = stats;
    fault_free.push_back(analyzer.totals());
  }
  // kPolicies[0] is none, kPolicies[1] cookieguard.
  const analysis::Totals& plain = fault_free[0];
  const analysis::Totals& guarded = fault_free[1];
  const double plain_load_ms = analysis::summarize(plain.load_event).mean_ms;

  // The paper's 100-site breakage sample, probed under each deployment.
  breakage::BreakageEvaluator evaluator(corpus);
  const int top = std::min(10000, corpus.size());
  const auto sample = evaluator.sample_sites(100, top);

  // Faulted crawls, one per policy and one with the filter list: the
  // manipulation columns.
  std::vector<MatrixRow> rows;
  for (std::size_t i = 0; i < std::size(kPolicies); ++i) {
    const auto kind = kPolicies[i];
    const std::string name(policy::to_string(kind));
    std::printf("crawling policy %s with faults...\n", name.c_str());
    MatrixRow row = manipulation_row(corpus, name, kind, threads);
    // kCookieGuard pairs its engine with the strict extension (the paper's
    // default deployment); the others run bare.
    const auto breakage_summary = evaluator.summarize(
        sample,
        kind == PolicyKind::kCookieGuard ? breakage::GuardMode::kStrict
                                         : breakage::GuardMode::kOff,
        kind);
    row.breakage_minor_pct =
        100.0 * breakage_summary.sites_minor / breakage_summary.sites;
    row.breakage_major_pct =
        100.0 * breakage_summary.sites_major / breakage_summary.sites;
    row.overhead_ms =
        analysis::summarize(fault_free[i].load_event).mean_ms - plain_load_ms;
    rows.push_back(std::move(row));
  }
  std::printf("crawling filter-list with faults...\n");
  FilterList filter_list(threads);
  rows.push_back(manipulation_row(corpus, "filter-list", PolicyKind::kNone,
                                  threads, &filter_list));

  print_fig5(plain, guarded, guard_stats);
  print_table3(evaluator, sample, top);
  print_table4(plain, guarded);
  print_matrix(rows, filter_list.stats());
  return 0;
}
