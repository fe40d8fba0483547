// Tests for the browser core: page loading, cookie APIs through the page,
// script inclusion chains, stack attribution, network behaviour, timings.
#include <gtest/gtest.h>

#include "browser/page.h"
#include "script/interpreter.h"
#include "test_support.h"

namespace cg::browser {
namespace {

using script::Category;
using testsupport::TestSite;
using testsupport::context_for_url;
using testsupport::spec_of;

TEST(NetworkLayerTest, RoutesByHostThenSiteThenDefault) {
  NetworkLayer network;
  network.register_host("api.shop.example", [](const net::HttpRequest&) {
    net::HttpResponse r;
    r.status = 201;
    return r;
  });
  network.register_site("shop.example", [](const net::HttpRequest&) {
    net::HttpResponse r;
    r.status = 202;
    return r;
  });

  net::HttpRequest req;
  req.url = net::Url::must_parse("https://api.shop.example/x");
  EXPECT_EQ(network.dispatch(req).status, 201);
  req.url = net::Url::must_parse("https://www.shop.example/x");
  EXPECT_EQ(network.dispatch(req).status, 202);
  req.url = net::Url::must_parse("https://elsewhere.com/x");
  EXPECT_EQ(network.dispatch(req).status, 200);
}

TEST(PageTest, LoadRunsStaticScriptsAndRecordsTimings) {
  TestSite site({"tracker"});
  site.catalog().add(spec_of(
      "tracker", "https://cdn.tracker.com/t.js", Category::kAdvertising,
      {script::set_cookie("_t", "{hex:16}", "; Path=/", false)}));
  auto page = site.open();
  EXPECT_EQ(site.browser().jar().size(), 1u);
  EXPECT_GT(page->timings().dom_interactive, 0);
  EXPECT_GE(page->timings().dom_content_loaded,
            page->timings().dom_interactive);
  EXPECT_GE(page->timings().load_event, page->timings().dom_content_loaded);
}

TEST(PageTest, GhostWrittenCookieLandsInFirstPartyJar) {
  TestSite site({"tracker"});
  site.catalog().add(spec_of(
      "tracker", "https://cdn.tracker.com/t.js", Category::kAdvertising,
      {script::set_cookie("_t", "{hex:16}", "; Path=/", false)}));
  site.open();
  const auto cookie = site.browser().jar().all().at(0);
  // The jar records the *site's* host — indistinguishable from a genuine
  // first-party cookie (§2.3), which is the entire problem.
  EXPECT_EQ(cookie.domain, "www.shop.example");
  EXPECT_EQ(cookie.name, "_t");
}

TEST(PageTest, FirstPartyUrlTemplateExpandsSite) {
  TestSite site({"fp"});
  site.catalog().add(spec_of(
      "fp", "https://{site}/app.js", Category::kFirstParty,
      {script::set_cookie("sess", "{hex:8}", "; Path=/", false)}));
  auto page = site.open();
  (void)page;
  EXPECT_EQ(site.browser().jar().size(), 1u);
}

TEST(PageTest, DocumentCookieRoundTripThroughPageApi) {
  TestSite site;
  auto page = site.open();
  const auto ctx = context_for_url("https://cdn.tracker.com/t.js");
  page->run_as(ctx, [&](script::PageServices& services) {
    services.document_cookie_write(ctx, "k=v; Path=/");
    EXPECT_EQ(services.document_cookie_read(ctx), "k=v");
  });
}

TEST(PageTest, CookieStoreIsAsynchronous) {
  TestSite site;
  auto page = site.open();
  const auto ctx = context_for_url("https://cdn.shopifycloud.com/perf.js");
  bool resolved = false;
  page->run_as(ctx, [&](script::PageServices& services) {
    services.cookie_store_set(ctx, "keep_alive", "abc123def456");
    services.cookie_store_get_all(
        ctx, [&](std::vector<script::StoreCookie> cookies) {
          resolved = true;
          ASSERT_EQ(cookies.size(), 1u);
          EXPECT_EQ(cookies[0].name, "keep_alive");
        });
  });
  EXPECT_FALSE(resolved);  // promise hasn't resolved yet
  page->loop().run_until_idle();
  EXPECT_TRUE(resolved);
  EXPECT_EQ(site.browser().jar().all().at(0).source,
            cookies::CookieSource::kCookieStore);
}

TEST(PageTest, CookieStoreDeleteRemovesCookie) {
  TestSite site;
  auto page = site.open();
  const auto ctx = context_for_url("https://cdn.x.com/x.js");
  page->run_as(ctx, [&](script::PageServices& services) {
    services.cookie_store_set(ctx, "tmp", "0123456789ab");
    services.cookie_store_delete(ctx, "tmp");
  });
  page->loop().run_until_idle();
  EXPECT_EQ(site.browser().jar().size(), 0u);
}

TEST(PageTest, DynamicInjectionBuildsInclusionChain) {
  TestSite site({"loader"});
  site.catalog().add(spec_of("loader", "https://tagmgr.com/gtm.js",
                             Category::kTagManager,
                             {script::inject("pixel")}));
  site.catalog().add(spec_of(
      "pixel", "https://pixel.net/p.js", Category::kAdvertising,
      {script::set_cookie("_px", "{hex:16}", "; Path=/", false)}));

  // Verify via an observing extension that the pixel was indirect.
  struct Watch : Extension {
    std::string name() const override { return "watch"; }
    void on_script_included(Page&, const script::ExecContext& ctx) override {
      if (ctx.script_id == "pixel") {
        indirect = ctx.inclusion == script::Inclusion::kIndirect;
        chain = ctx.inclusion_chain;
      }
    }
    bool indirect = false;
    std::vector<std::string> chain;
  } watch;
  site.browser().add_extension(&watch);

  site.open();
  EXPECT_TRUE(watch.indirect);
  ASSERT_EQ(watch.chain.size(), 1u);
  EXPECT_EQ(watch.chain[0], "loader");
  EXPECT_EQ(site.browser().jar().size(), 1u);
}

TEST(PageTest, InjectionCycleIsBounded) {
  TestSite site({"a"});
  site.catalog().add(spec_of("a", "https://a.com/a.js",
                             Category::kAdvertising, {script::inject("b")}));
  site.catalog().add(spec_of("b", "https://b.com/b.js",
                             Category::kAdvertising, {script::inject("a")}));
  site.open();  // must terminate
  SUCCEED();
}

TEST(PageTest, StackAttributionSeesNestedScript) {
  TestSite site({"outer"});
  site.catalog().add(spec_of("outer", "https://outer.com/o.js",
                             Category::kTagManager,
                             {script::inject("inner")}));
  site.catalog().add(spec_of(
      "inner", "https://inner.com/i.js", Category::kAdvertising,
      {script::set_cookie("_i", "{hex:8}", "; Path=/", false)}));

  struct Watch : Extension {
    std::string name() const override { return "watch"; }
    void on_script_cookie_change(Page&, const script::ExecContext&,
                                 const webplat::StackTrace& stack,
                                 const cookies::CookieChange&,
                                 cookies::CookieSource) override {
      top = stack.last_external_script_url().value_or("");
      depth = stack.depth();
    }
    std::string top;
    std::size_t depth = 0;
  } watch;
  site.browser().add_extension(&watch);
  site.open();
  EXPECT_EQ(watch.top, "https://inner.com/i.js");
  EXPECT_EQ(watch.depth, 2u);  // outer frame below inner frame
}

TEST(PageTest, AsyncCallbackKeepsSchedulingStackWhenEnabled) {
  TestSite site({"lazy"});
  site.catalog().add(spec_of(
      "lazy", "https://lazy.com/l.js", Category::kAdvertising,
      {script::run_async(
          100, {script::set_cookie("_l", "{hex:8}", "; Path=/", false)})}));

  struct Watch : Extension {
    std::string name() const override { return "watch"; }
    void on_script_cookie_change(Page&, const script::ExecContext&,
                                 const webplat::StackTrace& stack,
                                 const cookies::CookieChange&,
                                 cookies::CookieSource) override {
      attributed = stack.last_external_script_url().value_or("<none>");
    }
    std::string attributed;
  } watch;
  site.browser().add_extension(&watch);
  site.open();
  // Async stack traces enabled by default: the scheduling frame is found.
  EXPECT_EQ(watch.attributed, "https://lazy.com/l.js");
}

TEST(PageTest, AsyncCallbackLosesAttributionWhenDisabled) {
  BrowserConfig config;
  config.async_stack_traces = false;
  TestSite site({"lazy"}, config);
  site.catalog().add(spec_of(
      "lazy", "https://lazy.com/l.js", Category::kAdvertising,
      {script::run_async(
          100, {script::set_cookie("_l", "{hex:8}", "; Path=/", false)})}));

  struct Watch : Extension {
    std::string name() const override { return "watch"; }
    void on_script_cookie_change(Page&, const script::ExecContext&,
                                 const webplat::StackTrace& stack,
                                 const cookies::CookieChange&,
                                 cookies::CookieSource) override {
      attributed = stack.last_external_script_url().value_or("<none>");
    }
    std::string attributed = "unset";
  } watch;
  site.browser().add_extension(&watch);
  site.open();
  EXPECT_EQ(watch.attributed, "<none>");  // the §8 blind spot
}

TEST(PageTest, HelperCallbackMisattributesToHelper) {
  TestSite site({"lazy"});
  site.catalog().add(spec_of(
      "lazy", "https://lazy.com/l.js", Category::kAdvertising,
      {script::run_async(
          100, {script::set_cookie("_l", "{hex:8}", "; Path=/", false)},
          "https://cdn.helper.com/jquery.js")}));

  struct Watch : Extension {
    std::string name() const override { return "watch"; }
    void on_script_cookie_change(Page&, const script::ExecContext&,
                                 const webplat::StackTrace& stack,
                                 const cookies::CookieChange&,
                                 cookies::CookieSource) override {
      attributed = stack.last_external_script_url().value_or("<none>");
    }
    std::string attributed;
  } watch;
  site.browser().add_extension(&watch);
  site.open();
  // The helper's frame tops the stack: attribution lands on the helper —
  // the "some edge cases remain unresolved" of §8.
  EXPECT_EQ(watch.attributed, "https://cdn.helper.com/jquery.js");
}

TEST(PageTest, SameSiteSetCookieHeadersEnterJar) {
  TestSite site;
  site.browser().network().register_host(
      "www.shop.example", [](const net::HttpRequest& req) {
        net::HttpResponse res;
        if (req.destination == net::RequestDestination::kDocument) {
          res.headers.add("Set-Cookie", "sid=abc123; Path=/; HttpOnly");
          res.headers.add("Set-Cookie", "pref=dark; Path=/");
        }
        return res;
      });
  site.open();
  EXPECT_EQ(site.browser().jar().size(), 2u);
  EXPECT_TRUE(site.browser().jar().find("sid", "www.shop.example", "/")
                  ->http_only);
}

TEST(PageTest, CrossSiteSetCookieIgnored) {
  TestSite site({"tracker"});
  site.catalog().add(spec_of("tracker", "https://cdn.tracker.com/t.js",
                             Category::kAdvertising,
                             {script::beacon("cdn.tracker.com", "/p")}));
  site.browser().network().register_host(
      "cdn.tracker.com", [](const net::HttpRequest&) {
        net::HttpResponse res;
        res.headers.add("Set-Cookie", "3p=tracker");  // third-party cookie
        return res;
      });
  site.open();
  EXPECT_EQ(site.browser().jar().size(), 0u);  // phased out (§1)
}

TEST(PageTest, SameSiteRequestsCarryCookieHeader) {
  TestSite site;
  std::string seen_cookie_header;
  site.browser().network().register_host(
      "www.shop.example", [&](const net::HttpRequest& req) {
        if (req.destination == net::RequestDestination::kXhr) {
          seen_cookie_header = req.headers.get("Cookie").value_or("");
        }
        net::HttpResponse res;
        if (req.destination == net::RequestDestination::kDocument) {
          res.headers.add("Set-Cookie", "sid=s3cr3t; Path=/");
        }
        return res;
      });
  auto page = site.open();
  const auto ctx = context_for_url("https://www.shop.example/app.js");
  page->run_as(ctx, [&](script::PageServices& services) {
    services.send_request(
        ctx, net::Url::must_parse("https://www.shop.example/api"));
  });
  EXPECT_EQ(seen_cookie_header, "sid=s3cr3t");
}

TEST(PageTest, ExtensionOverheadSlowsPageLoad) {
  struct Slow : Extension {
    std::string name() const override { return "slow"; }
    TimeMillis api_call_overhead_ms() const override { return 50; }
  } slow;

  auto build = [&](bool with_ext) {
    TestSite site({"chatty"});
    site.catalog().add(spec_of(
        "chatty", "https://cdn.chatty.com/c.js", Category::kAnalytics,
        {script::read_cookies(), script::read_cookies(),
         script::read_cookies()}));
    if (with_ext) site.browser().add_extension(&slow);
    auto page = site.open();
    return page->timings().load_event;
  };
  // Identical seed and site: the only difference is interception overhead.
  EXPECT_GT(build(true), build(false));
}

TEST(BrowserTest, VisitStartFiresOncePerBrowser) {
  struct Count : Extension {
    std::string name() const override { return "count"; }
    void on_visit_start(Browser&) override { ++starts; }
    int starts = 0;
  } count;
  TestSite site;
  site.browser().add_extension(&count);
  site.open();
  site.open();  // second navigation, same visit
  EXPECT_EQ(count.starts, 1);
}

TEST(BrowserTest, JarPersistsAcrossNavigations) {
  TestSite site;
  auto page = site.open();
  const auto ctx = context_for_url("https://www.shop.example/app.js");
  page->run_as(ctx, [&](script::PageServices& services) {
    services.document_cookie_write(ctx, "keep=1; Path=/");
  });
  auto page2 = site.open();
  page2->run_as(ctx, [&](script::PageServices& services) {
    EXPECT_EQ(services.document_cookie_read(ctx), "keep=1");
  });
}

}  // namespace
}  // namespace cg::browser

// Appended: SOP subframe isolation (threat model §3, Figure 1).
namespace cg::browser {
namespace {

TEST(FrameIsolationTest, CrossOriginFrameCannotSeeMainJar) {
  testsupport::TestSite site;
  auto page = site.open();
  const auto main_ctx =
      testsupport::context_for_url("https://www.shop.example/app.js");
  page->run_as(main_ctx, [&](script::PageServices& services) {
    services.document_cookie_write(main_ctx, "secret=mainframe123; Path=/");
  });

  auto& frame = page->create_subframe(
      net::Url::must_parse("https://ads.tracker.com/frame.html"));
  const auto frame_ctx =
      testsupport::context_for_url("https://ads.tracker.com/ad.js");
  std::string seen = "unset";
  page->run_in_frame(frame, frame_ctx, [&](script::PageServices& services) {
    seen = services.document_cookie_read(frame_ctx);
  });
  EXPECT_EQ(seen, "");  // SOP: the main frame's jar is unreachable
}

TEST(FrameIsolationTest, CrossOriginFrameCookiesArePartitioned) {
  testsupport::TestSite site;
  auto page = site.open();
  auto& frame = page->create_subframe(
      net::Url::must_parse("https://ads.tracker.com/frame.html"));
  const auto frame_ctx =
      testsupport::context_for_url("https://ads.tracker.com/ad.js");
  page->run_in_frame(frame, frame_ctx, [&](script::PageServices& services) {
    services.document_cookie_write(frame_ctx, "frame_id=abc123; Path=/");
    EXPECT_EQ(services.document_cookie_read(frame_ctx), "frame_id=abc123");
  });
  // The first-party jar never saw it.
  EXPECT_EQ(site.browser().jar().size(), 0u);
}

TEST(FrameIsolationTest, FrameCookiesDoNotOutliveThePage) {
  testsupport::TestSite site;
  const auto frame_url =
      net::Url::must_parse("https://ads.tracker.com/frame.html");
  const auto frame_ctx =
      testsupport::context_for_url("https://ads.tracker.com/ad.js");
  {
    auto page = site.open();
    auto& frame = page->create_subframe(frame_url);
    page->run_in_frame(frame, frame_ctx, [&](script::PageServices& services) {
      services.document_cookie_write(frame_ctx, "frame_id=abc123; Path=/");
    });
  }
  // Page 1 is gone and took its frame cookies with it.
  EXPECT_EQ(site.browser().jar_store().total_cookies(), 0u);

  auto page = site.open();
  auto& frame = page->create_subframe(frame_url);
  std::string seen = "unset";
  page->run_in_frame(frame, frame_ctx, [&](script::PageServices& services) {
    seen = services.document_cookie_read(frame_ctx);
  });
  EXPECT_EQ(seen, "");  // the same-origin frame on page 2 starts empty
}

TEST(FrameIsolationTest, SameOriginFrameSharesMainJar) {
  testsupport::TestSite site;
  auto page = site.open();
  const auto main_ctx =
      testsupport::context_for_url("https://www.shop.example/app.js");
  page->run_as(main_ctx, [&](script::PageServices& services) {
    services.document_cookie_write(main_ctx, "shared=yes; Path=/");
  });
  auto& frame = page->create_subframe(
      net::Url::must_parse("https://www.shop.example/widget.html"));
  std::string seen;
  page->run_in_frame(frame, main_ctx, [&](script::PageServices& services) {
    seen = services.document_cookie_read(main_ctx);
  });
  EXPECT_EQ(seen, "shared=yes");
}

TEST(FrameIsolationTest, FrameDomIsSeparate) {
  testsupport::TestSite site;
  auto page = site.open();
  auto& frame = page->create_subframe(
      net::Url::must_parse("https://ads.tracker.com/frame.html"));
  const auto frame_ctx =
      testsupport::context_for_url("https://ads.tracker.com/ad.js");
  page->run_in_frame(frame, frame_ctx, [&](script::PageServices& services) {
    auto& node = services.main_document().create_element("div", "tracker.com");
    services.main_document().append_child(services.main_document().body(),
                                          node, "tracker.com");
  });
  EXPECT_EQ(frame.document().elements_by_tag("div").size(), 1u);
  EXPECT_TRUE(page->main_frame().document().elements_by_tag("div").empty());
}

TEST(RequestBlockingTest, VetoedRequestNeverReachesNetworkOrObservers) {
  struct Blocker final : Extension {
    std::string name() const override { return "blocker"; }
    bool allow_request(Page&, const net::HttpRequest& request,
                       const script::ExecContext*) override {
      return request.url.site() != "evil.com";
    }
  } blocker;
  struct Watch final : Extension {
    std::string name() const override { return "watch"; }
    void on_request_will_be_sent(Page&, const net::HttpRequest&,
                                 const script::ExecContext*,
                                 const webplat::StackTrace&) override {
      ++requests;
    }
    int requests = 0;
  } watch;
  testsupport::TestSite site;
  site.browser().add_extension(&blocker);
  site.browser().add_extension(&watch);
  auto page = site.open();
  const int before = watch.requests;
  const auto ctx = testsupport::context_for_url("https://cdn.x.com/x.js");
  page->run_as(ctx, [&](script::PageServices& services) {
    services.send_request(ctx, net::Url::must_parse("https://px.evil.com/c"));
    services.send_request(ctx, net::Url::must_parse("https://px.fine.com/c"));
  });
  EXPECT_EQ(watch.requests - before, 1);  // only the allowed one
}

}  // namespace
}  // namespace cg::browser

// Appended: cookieStore.get through the page (async + filtered).
namespace cg::browser {
namespace {

TEST(PageTest, CookieStoreGetResolvesByName) {
  testsupport::TestSite site;
  auto page = site.open();
  const auto ctx =
      testsupport::context_for_url("https://cdn.shopifycloud.com/perf.js");
  std::optional<script::StoreCookie> got;
  bool resolved = false;
  page->run_as(ctx, [&](script::PageServices& services) {
    services.cookie_store_set(ctx, "keep_alive", "abc123def456");
    services.cookie_store_get(ctx, "keep_alive",
                              [&](std::optional<script::StoreCookie> c) {
                                resolved = true;
                                got = std::move(c);
                              });
    services.cookie_store_get(ctx, "missing",
                              [&](std::optional<script::StoreCookie> c) {
                                EXPECT_FALSE(c.has_value());
                              });
  });
  EXPECT_FALSE(resolved);
  page->loop().run_until_idle();
  ASSERT_TRUE(resolved);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value, "abc123def456");
}

}  // namespace
}  // namespace cg::browser

// Appended: navigation failure paths (crawl fault layer substrate).
namespace cg::browser {
namespace {

TEST(NavigationTest, DnsFailureYieldsNoPage) {
  testsupport::TestSite site;
  site.browser().dns().inject_failure("www.shop.example",
                                      net::DnsStatus::kNxDomain);
  auto result = site.browser().navigate(
      net::Url::must_parse(testsupport::TestSite::kSiteUrl));
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result);
  EXPECT_EQ(result.get(), nullptr);
  EXPECT_EQ(result.failure, fault::FailureClass::kDnsFailure);
}

TEST(NavigationTest, CnameLoopOnSiteHostFailsNavigation) {
  testsupport::TestSite site;
  site.browser().dns().add_cname("www.shop.example", "edge.shop.example");
  site.browser().dns().add_cname("edge.shop.example", "www.shop.example");
  const auto result = site.browser().navigate(
      net::Url::must_parse(testsupport::TestSite::kSiteUrl));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.failure, fault::FailureClass::kDnsFailure);
}

TEST(NavigationTest, ConnectTimeoutYieldsFailureAndBurnsClock) {
  testsupport::TestSite site;
  auto& browser = site.browser();
  browser.network().set_fault_hook([](const net::HttpRequest& request) {
    net::TransportVerdict verdict;
    if (request.destination == net::RequestDestination::kDocument) {
      verdict.error = net::NetError::kConnectionTimeout;
      verdict.latency_ms = 30'000;
    }
    return verdict;
  });
  const TimeMillis before = browser.clock().now();
  const auto result = browser.navigate(
      net::Url::must_parse(testsupport::TestSite::kSiteUrl));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.failure, fault::FailureClass::kConnectTimeout);
  // The connect burned its timeout budget on the simulated clock.
  EXPECT_GE(browser.clock().now() - before, 30'000);
}

TEST(NavigationTest, SuccessfulResultConvertsToUniquePtr) {
  testsupport::TestSite site;
  std::unique_ptr<Page> page = site.browser().navigate(
      net::Url::must_parse(testsupport::TestSite::kSiteUrl));
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->url().host(), "www.shop.example");
}

TEST(NavigationTest, ResponseHookMutatesHeadersInFlight) {
  testsupport::TestSite site;
  auto& browser = site.browser();
  browser.network().register_host(
      "www.shop.example", [](const net::HttpRequest&) {
        net::HttpResponse response;
        response.headers.add("Set-Cookie", "sid=12345678; Path=/");
        response.body = "<html></html>";
        return response;
      });
  browser.network().set_response_hook(
      [](const net::HttpRequest&, net::HttpResponse& response) {
        const auto cookies = response.headers.get_all("Set-Cookie");
        response.headers.remove("Set-Cookie");
        for (const auto& header : cookies) {
          response.headers.add("Set-Cookie",
                               header.substr(0, header.size() / 2));
        }
      });
  net::HttpRequest probe;
  probe.url = net::Url::must_parse(testsupport::TestSite::kSiteUrl);
  probe.destination = net::RequestDestination::kDocument;
  const auto response = browser.network().dispatch(probe);
  ASSERT_EQ(response.set_cookie_headers().size(), 1u);
  EXPECT_EQ(response.set_cookie_headers()[0], "sid=123456");
}

}  // namespace
}  // namespace cg::browser
