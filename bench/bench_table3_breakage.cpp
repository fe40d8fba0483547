// Reproduces Table 3: website breakage under CookieGuard, assessed on a
// random sample of 100 sites from the top 10k (the paper's manual
// evaluation, here replaced by executable functionality probes).
//
// Paper (strict CookieGuard):
//           navigation  SSO  appearance  functionality
//   minor       0%       1%      0%           3%
//   major       0%      11%      0%           3%
// Entity grouping + per-site domain policies reduce breakage to ~3%.
#include <algorithm>

#include "breakage/breakage.h"

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace cg;
  using breakage::GuardMode;
  const auto flags = bench::parse_flags(argc, argv, {"policy"});
  corpus::Corpus corpus(bench::default_params());
  bench::print_header("Table 3 — website breakage under CookieGuard", corpus);
  // --policy/CG_POLICY pairs each deployment with a partitioning engine;
  // cookieguard's engine is jar-identical to none, so Table 3 reproduces
  // exactly under it (the bake-off matrix exercises fpi/chips).
  const auto policy = bench::crawl_policy(flags);

  breakage::BreakageEvaluator evaluator(corpus);
  const auto sample = evaluator.sample_sites(
      100, std::min(10000, corpus.size()));
  std::printf("\nsample: %zu sites from the top %d\n", sample.size(),
              std::min(10000, corpus.size()));

  static const char* kAspects[] = {"navigation", "sso", "appearance",
                                   "functionality"};
  for (const auto mode :
       {GuardMode::kOff, GuardMode::kStrict, GuardMode::kEntityGrouping,
        GuardMode::kGroupingPlusPolicies}) {
    const auto summary = evaluator.summarize(sample, mode, policy);
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
  return 0;
}
