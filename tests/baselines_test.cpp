// Tests for the baseline defenses (§2.1 comparison substrate).
#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "browser/page.h"
#include "script/interpreter.h"
#include "test_support.h"

namespace cg::baselines {
namespace {

using script::Category;
using testsupport::TestSite;
using testsupport::context_for_url;
using testsupport::spec_of;

TEST(FilterListBlockerTest, BlocksListedScriptInclusion) {
  TestSite site({"ga", "unlisted"});
  site.catalog().add(spec_of(
      "ga", "https://www.google-analytics.com/analytics.js",
      Category::kAnalytics,
      {script::set_cookie("_ga", "{hex:8}", "; Path=/", false)}));
  site.catalog().add(spec_of(
      "unlisted", "https://cdn.tinytracker77.net/t.js", Category::kAdvertising,
      {script::set_cookie("_tt", "{hex:8}", "; Path=/", false)}));

  FilterListBlocker blocker;
  site.browser().add_extension(&blocker);
  site.open();

  // google-analytics.com is on the list; the long-tail domain is not.
  EXPECT_FALSE(site.browser()
                   .jar()
                   .find("_ga", "www.shop.example", "/")
                   .has_value());
  EXPECT_TRUE(site.browser()
                  .jar()
                  .find("_tt", "www.shop.example", "/")
                  .has_value());
  EXPECT_EQ(blocker.stats().scripts_blocked, 1u);
}

TEST(FilterListBlockerTest, MissesCnameCloakedScripts) {
  TestSite site({"cloaked"});
  site.catalog().add(spec_of(
      "cloaked", "https://metrics.shop.example/ct.js", Category::kAnalytics,
      {script::set_cookie("_sA", "{hex:16}", "; Path=/", false)}));
  site.browser().dns().add_cname("metrics.shop.example",
                                 "collect.cloaktrack.net");
  FilterListBlocker blocker;
  site.browser().add_extension(&blocker);
  site.open();
  // The blocker matches on the visible domain (first-party) — cloak works.
  EXPECT_TRUE(site.browser()
                  .jar()
                  .find("_sA", "www.shop.example", "/")
                  .has_value());
}

TEST(FilterListBlockerTest, BlocksRequestsToListedDomains) {
  TestSite site;
  FilterListBlocker blocker;
  site.browser().add_extension(&blocker);
  auto page = site.open();
  const auto ctx = context_for_url("https://cdn.unlisted-helper.com/h.js");
  page->run_as(ctx, [&](script::PageServices& services) {
    services.send_request(
        ctx, net::Url::must_parse("https://bat.bing.com/action?x=1"));
    services.send_request(
        ctx, net::Url::must_parse("https://api.unlisted.net/ok"));
  });
  EXPECT_EQ(blocker.stats().requests_blocked, 1u);
}

TEST(FilterListBlockerTest, NeverBlocksDocumentRequests) {
  TestSite site;
  FilterListBlocker blocker({"shop.example"});  // even if listed!
  site.browser().add_extension(&blocker);
  auto page = site.open();  // must load fine
  EXPECT_GT(page->main_frame().document().node_count(), 0u);
  EXPECT_EQ(blocker.stats().requests_blocked, 0u);
}

}  // namespace
}  // namespace cg::baselines
