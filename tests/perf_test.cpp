// Tests for the performance comparison pipeline (Table 4).
#include <gtest/gtest.h>

#include "perf/perf.h"

namespace cg::perf {
namespace {

constexpr auto kGuard = policy::PolicyKind::kCookieGuard;

TEST(SummarizeTest, MeanAndMedian) {
  const auto s = analysis::summarize({100, 200, 300, 400, 1000});
  EXPECT_DOUBLE_EQ(s.mean_ms, 400.0);
  EXPECT_EQ(s.median_ms, 300);
}

TEST(SummarizeTest, EmptyInput) {
  const auto s = analysis::summarize({});
  EXPECT_DOUBLE_EQ(s.mean_ms, 0.0);
  EXPECT_EQ(s.median_ms, 0);
}

TEST(SummarizeTest, SingleSample) {
  const auto s = analysis::summarize({42});
  EXPECT_DOUBLE_EQ(s.mean_ms, 42.0);
  EXPECT_EQ(s.median_ms, 42);
}

class PerfComparisonTest : public ::testing::Test {
 protected:
  static const corpus::Corpus& corpus() {
    static const corpus::CorpusParams params = [] {
      corpus::CorpusParams p;
      p.site_count = 120;
      return p;
    }();
    static const corpus::Corpus instance(params);
    return instance;
  }
};

TEST_F(PerfComparisonTest, CookieGuardAddsOverhead) {
  cookieguard::CookieGuardConfig config;
  const auto comparison = compare_page_load(corpus(), 120, kGuard, config);
  EXPECT_GT(comparison.mean_overhead_ms, 0);
  EXPECT_GT(comparison.guarded.dom_content_loaded.mean_ms,
            comparison.normal.dom_content_loaded.mean_ms);
  // dom_interactive fires before any script executes, so interception
  // cannot slow it: equal in both runs.
  EXPECT_DOUBLE_EQ(comparison.guarded.dom_interactive.mean_ms,
                   comparison.normal.dom_interactive.mean_ms);
  // Ordering invariants hold in both runs.
  EXPECT_LE(comparison.normal.dom_interactive.mean_ms,
            comparison.normal.dom_content_loaded.mean_ms);
  EXPECT_LE(comparison.normal.dom_content_loaded.mean_ms,
            comparison.normal.load_event.mean_ms);
}

TEST_F(PerfComparisonTest, OverheadScalesWithPerCallCost) {
  cookieguard::CookieGuardConfig cheap;
  cheap.api_overhead_ms = 1;
  cookieguard::CookieGuardConfig expensive;
  expensive.api_overhead_ms = 10;
  const auto a = compare_page_load(corpus(), 60, kGuard, cheap);
  const auto b = compare_page_load(corpus(), 60, kGuard, expensive);
  EXPECT_GT(b.mean_overhead_ms, a.mean_overhead_ms);
}

TEST_F(PerfComparisonTest, MedianReportedFromSameDistribution) {
  cookieguard::CookieGuardConfig config;
  const auto comparison = compare_page_load(corpus(), 60, kGuard, config);
  EXPECT_GT(comparison.normal.load_event.median_ms, 0);
  EXPECT_GE(comparison.normal.load_event.mean_ms,
            comparison.normal.dom_content_loaded.mean_ms);
}

}  // namespace
}  // namespace cg::perf
