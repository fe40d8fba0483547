// Reproduces Table 2: top-20 cookies most frequently exfiltrated by
// cross-domain scripts, with owner domain, exfiltrator/destination entity
// counts, and top-3 entities per side (sorted by destination-entity count).
//
// Paper headline: _ga (owner googletagmanager.com) leads; Microsoft, Yandex
// and Pinterest are top exfiltrators; HubSpot, Microsoft and Amazon are top
// destinations.
#include "bench_util.h"

namespace {

std::string top3(const std::map<std::string, int>& counts) {
  std::string out;
  for (const auto& [entity, n] : cg::analysis::top_counts(counts, 3)) {
    if (!out.empty()) out += ", ";
    out += entity;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cg;
  const auto flags = bench::parse_flags(argc, argv, {"threads", "policy"});
  corpus::Corpus corpus(bench::default_params());
  const int threads = bench::crawl_threads(flags);
  bench::print_header(
      "Table 2 — top 20 cookies exfiltrated by cross-domain scripts", corpus, threads);

  analysis::Analyzer analyzer(corpus.entities());
  bench::run_measurement_crawl(corpus, analyzer,
                               /*with_faults=*/true, threads, nullptr,
                               bench::crawl_policy(flags));

  std::printf("\n  %-22s %-22s %6s %6s  %-34s %s\n", "cookie", "owner domain",
              "#exfil", "#dest", "top exfiltrator entities",
              "top destination entities");
  std::printf("  %s\n", std::string(130, '-').c_str());
  for (const auto& row : analyzer.top_exfiltrated(20)) {
    std::printf("  %-22s %-22s %6zu %6zu  %-34s %s\n",
                row.pair.name.c_str(), row.pair.owner_domain.c_str(),
                row.stats->exfiltrator_entities.size(),
                row.stats->destination_entities.size(),
                top3(row.stats->exfiltrator_entities).c_str(),
                top3(row.stats->destination_entities).c_str());
  }
  std::printf("\n  paper row 1: _ga | googletagmanager.com | 1191 | 664 | "
              "Microsoft, Yandex, Pinterest | HubSpot, Microsoft, Amazon\n"
              "  (absolute entity counts scale with the catalog's vendor\n"
              "   population; ordering and entity mix are the comparison "
              "targets)\n\n");
  return 0;
}
