// Reproduces every §5 and §8 measurement of the paper from one crawl (or
// one CG_ARCHIVE replay): §5.1/§5.6 prevalence and inclusion paths, §5.2
// API usage, Table 1, Table 2, Figure 2, §5.5 + Table 5 + Figure 6, and
// the §8 DOM pilot. Each is a section of report::summary_to_json over the
// crawl's fold, printed as text rows with the paper's values beside them;
// every number comes from the section JSON, and this file only lays it
// out. Flags: --threads N, --policy NAME, --trace FILE [--trace-detail D].
#include <string>

#include "bench_util.h"
#include "report/report.h"

namespace {

using cg::report::Json;

double num(const Json& section, const char* key) {
  return section.find(key)->as_double();
}

long long count(const Json& section, const char* key) {
  return static_cast<long long>(section.find(key)->as_int());
}

std::string text(const Json& row, const char* key) {
  return row.find(key)->as_string();
}

void print_title(const char* title) { std::printf("## %s\n", title); }

void print_prevalence(const Json& totals, const Json& s) {
  print_title(
      "§5.1 / §5.6 — prevalence of third-party scripts in the main frame");
  std::printf("\nsites crawled: %lld, with complete logs: %lld (paper: "
              "20,000 / 14,917)\n\n",
              count(totals, "sites_crawled"), count(totals, "sites_complete"));
  cg::bench::print_row("sites with >=1 third-party script", 93.3,
                       num(s, "pct_sites_with_third_party"));
  cg::bench::print_row("distinct third-party scripts per site (avg)", 19.0,
                       num(s, "third_party_scripts_per_site"), "");
  cg::bench::print_row("third-party scripts that are ad/tracking", 70.0,
                       num(s, "pct_third_party_ad_tracking"));
  cg::bench::print_row("third-party cookies set per site (avg)", 15.0,
                       num(s, "tp_cookies_per_site"), "");
  cg::bench::print_row("first-party cookies set per site (avg)", 4.0,
                       num(s, "fp_cookies_per_site"), "");
  std::printf("\n-- §5.6 inclusion paths (third-party scripts) --\n");
  cg::bench::print_row("indirect / direct inclusion ratio", 2.5,
                       num(s, "indirect_per_direct_inclusion"), "x");
  cg::bench::print_row("indirect inclusions that are ad/tracking", 33.0,
                       num(s, "pct_indirect_ad_tracking"));
  std::printf("\n");
}

void print_api_usage(const Json& totals, const Json& table1, const Json& s) {
  print_title("§5.2 — usage of script cookie APIs in the wild");
  cg::bench::print_row("sites invoking document.cookie", 96.3,
                       num(s, "pct_sites_using_document_cookie"));
  cg::bench::print_row("sites invoking cookieStore", 2.8,
                       num(s, "pct_sites_using_cookie_store"));
  std::printf("\n  unique cookie pairs (name, setter domain):\n");
  std::printf("    document.cookie/header: %lld   (paper: 81,918 at 20k "
              "sites)\n",
              count(*table1.find("document_cookie"), "pairs"));
  std::printf("    cookieStore:            %lld   (paper: 411)\n",
              count(*table1.find("cookie_store"), "pairs"));
  std::printf("  unique setter script URLs: %lld (paper: 92,235)\n",
              count(totals, "unique_setter_scripts"));
  std::printf("\n  cookieStore cookie names (paper: 13 names, ~90%% being "
              "keep_alive and _awl):\n");
  const Json& names = *s.find("store_cookie_names");
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::printf("    %s\n", names.at(i).as_string().c_str());
  }
  std::printf("  cookieStore setter script domains: %lld (paper: 361)\n\n",
              count(s, "store_script_domains"));
}

void print_table1(const Json& s) {
  print_title("Table 1 — prevalence of cross-domain cookie actions");
  const Json& doc = *s.find("document_cookie");
  const Json& store = *s.find("cookie_store");
  std::printf("\nsites analyzed: %lld; unique pairs: %lld (doc) %lld "
              "(store)\n",
              count(s, "sites_complete"), count(doc, "pairs"),
              count(store, "pairs"));
  std::printf("\n  %-26s | %% of websites (paper/meas) | %% of cookies "
              "(paper/meas) | #cookies\n",
              "action");
  std::printf("  %s\n", std::string(94, '-').c_str());
  struct Row {
    const char* action;
    const Json& api;
    const char* sites_key;
    const char* pairs_key;
    const char* count_key;
    double paper_sites, paper_cookies;
  };
  const Row rows[] = {
      {"doc.cookie exfiltration", doc, "pct_sites_exfiltrating",
       "pct_pairs_exfiltrated", "exfiltrated_pairs", 55.7, 5.9},
      {"doc.cookie overwriting", doc, "pct_sites_overwriting",
       "pct_pairs_overwritten", "overwritten_pairs", 31.5, 2.7},
      {"doc.cookie deleting", doc, "pct_sites_deleting", "pct_pairs_deleted",
       "deleted_pairs", 6.3, 1.8},
      {"cookieStore exfiltration", store, "pct_sites_exfiltrating",
       "pct_pairs_exfiltrated", "exfiltrated_pairs", 0.7, 16.3},
      {"cookieStore overwriting", store, "pct_sites_overwriting",
       "pct_pairs_overwritten", "overwritten_pairs", 0.0, 0.0},
      {"cookieStore deleting", store, "pct_sites_deleting",
       "pct_pairs_deleted", "deleted_pairs", 0.0, 0.0},
  };
  for (const Row& row : rows) {
    std::printf("  %-26s |        %5.1f / %5.1f       |       %5.1f / %5.1f"
                "       | %lld\n",
                row.action, row.paper_sites, num(row.api, row.sites_key),
                row.paper_cookies, num(row.api, row.pairs_key),
                count(row.api, row.count_key));
  }
  std::printf("\n");
}

void print_table2(const Json& rows) {
  print_title("Table 2 — top 20 cookies exfiltrated by cross-domain scripts");
  std::printf("\n  %-22s %-22s %6s %6s  %-34s %s\n", "cookie", "owner domain",
              "#exfil", "#dest", "top exfiltrator entities",
              "top destination entities");
  std::printf("  %s\n", std::string(130, '-').c_str());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Json& row = rows.at(i);
    std::printf("  %-22s %-22s %6lld %6lld  %-34s %s\n",
                text(row, "name").c_str(), text(row, "owner_domain").c_str(),
                count(row, "exfiltrator_entities"),
                count(row, "destination_entities"),
                text(row, "top_exfiltrators").c_str(),
                text(row, "top_destinations").c_str());
  }
  std::printf("\n  paper row 1: _ga | googletagmanager.com | 1191 | 664 | "
              "Microsoft, Yandex, Pinterest | HubSpot, Microsoft, Amazon\n"
              "  (absolute entity counts scale with the catalog's vendor\n"
              "   population; ordering and entity mix are the comparison "
              "targets)\n\n");
}

void print_fig2(const Json& rows) {
  print_title("Figure 2 — top 20 cross-domain exfiltrator script domains");
  std::printf("\n  %-30s %10s %10s\n", "script domain", "#cookies",
              "% of all");
  std::printf("  %s\n", std::string(54, '-').c_str());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Json& row = rows.at(i);
    // The bar is the row's length relative to the first row's (layout).
    const auto bar = static_cast<std::size_t>(
        50.0 * count(row, "unique_cookies") /
        count(rows.at(0), "unique_cookies"));
    std::printf("  %-30s %10lld %9.2f%%  %s\n", text(row, "domain").c_str(),
                count(row, "unique_cookies"), num(row, "pct_of_all_pairs"),
                std::string(bar, '#').c_str());
  }
  std::printf("\n  paper: google-analytics.com #1 at 3.3%% of all cookies, "
              "followed by RTB\n  exchanges (doubleclick.net, "
              "amazon-adsystem.com, pubmatic.com).\n\n");
}

void print_manipulated_pairs(const Json& rows, const char* entities_key,
                             const char* top_key) {
  std::printf("  %-22s %-24s %8s  %s\n", "cookie", "creator domain",
              "#manip", "top manipulator entities");
  // Table 5 lists ten pairs per action.
  for (std::size_t i = 0; i < rows.size() && i < 10; ++i) {
    const Json& row = rows.at(i);
    std::printf("  %-22s %-24s %8lld  %s\n", text(row, "name").c_str(),
                text(row, "owner_domain").c_str(), count(row, entities_key),
                text(row, top_key).c_str());
  }
}

void print_domains(const Json& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("  %-30s %6lld unique cookies\n",
                text(rows.at(i), "domain").c_str(),
                count(rows.at(i), "unique_cookies"));
  }
}

void print_manipulation(const Json& totals, const Json& s) {
  print_title("Table 5 / Figure 6 — cross-domain overwriting and deletion");
  std::printf("\n-- §5.5 attributes changed by cross-domain overwrites --\n");
  cg::bench::print_row("value changed", 85.3,
                       num(s, "pct_overwrites_value_changed"));
  cg::bench::print_row("expires changed", 69.4,
                       num(s, "pct_overwrites_expires_changed"));
  cg::bench::print_row("domain changed", 6.0,
                       num(s, "pct_overwrites_domain_changed"));
  cg::bench::print_row("path changed", 1.2,
                       num(s, "pct_overwrites_path_changed"));
  std::printf("  lifespan: %lld overwrites pushed the expiry later "
              "(avg +%.0f days), %lld pulled it\n  earlier -- 'extending "
              "tracking durations beyond the original intent' (s5.5)\n",
              count(totals, "overwrite_expiry_extended"),
              num(s, "days_added_per_extension"),
              count(totals, "overwrite_expiry_shortened"));

  std::printf("\n-- Table 5a: most frequently overwritten cookie pairs --\n");
  print_manipulated_pairs(*s.find("top_overwritten"), "overwriter_entities",
                          "top_overwriters");
  std::printf("  paper: _fbp (facebook.net) leads with 132 manipulator "
              "entities\n");

  std::printf("\n-- Table 5b: most frequently deleted cookie pairs --\n");
  print_manipulated_pairs(*s.find("top_deleted"), "deleter_entities",
                          "top_deleters");
  std::printf("  paper: _uetvid/_uetsid (bing.com) lead; consent managers "
              "(Tealium, cookie-script,\n  cdn-cookieyes) dominate the "
              "deleter side\n");

  std::printf("\n-- Figure 6a: top overwriter script domains --\n");
  print_domains(*s.find("top_overwriter_domains"));
  std::printf("  paper: googletagmanager.com #1 (386 of 82k cookies)\n");

  std::printf("\n-- Figure 6b: top deleter script domains --\n");
  print_domains(*s.find("top_deleter_domains"));
  std::printf("  paper: prettylittlething.com (a first-party cleanup script) "
              "#1 (252 cookies);\n  consent managers follow\n\n");
}

void print_dom_pilot(const Json& s) {
  print_title("§8 pilot — cross-domain DOM modification");
  cg::bench::print_row("sites with cross-domain DOM modification", 9.4,
                       num(s, "pct_sites_with_cross_dom_modification"));
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cg;
  const auto flags = bench::parse_flags(
      argc, argv, {"threads", "policy", "trace", "trace-detail"});
  corpus::Corpus corpus(bench::default_params());
  const int threads = bench::crawl_threads(flags);
  bench::print_header("§5 / §8 — every measurement section from one crawl",
                      corpus, threads);

  analysis::Analyzer analyzer(corpus.entities());
  const auto trace = cli::open_trace(flags, "CG_TRACE");
  bench::run_measurement_crawl(corpus, analyzer, /*with_faults=*/true,
                               threads, trace.recorder.get(),
                               bench::crawl_policy(flags));

  // Table 2 and Figures 2/6 rank twenty rows; Table 5 prints ten of them.
  const Json summary = report::summary_to_json(analyzer.summary(), 20);
  const Json& totals = *summary.find("totals");
  const Json& table1 = *summary.find("table1");
  print_prevalence(totals, *summary.find("prevalence"));
  print_api_usage(totals, table1, *summary.find("api_usage"));
  print_table1(table1);
  print_table2(*summary.find("top_exfiltrated"));
  print_fig2(*summary.find("top_exfiltrator_domains"));
  print_manipulation(totals, *summary.find("manipulation"));
  print_dom_pilot(*summary.find("dom_pilot"));
  return 0;
}
