// Tests for CookieGuard's enforcement: per-script-origin read filtering,
// cross-domain write blocking, site-owner full access, inline denial, entity
// grouping, per-site policies, and metadata (re-)attribution.
#include <gtest/gtest.h>

#include <set>

#include "cookieguard/cookieguard.h"
#include "cookieguard/deployment.h"
#include "script/interpreter.h"
#include "test_support.h"

namespace cg::cookieguard {
namespace {

using script::Category;
using testsupport::TestSite;
using testsupport::context_for_url;
using testsupport::inline_context;
using testsupport::spec_of;

class CookieGuardTest : public ::testing::Test {
 protected:
  // Builds a site where facebook.net's pixel has set _fbp and the site's own
  // script has set sess, then installs CookieGuard with `config`.
  std::unique_ptr<browser::Page> open_with(CookieGuardConfig config) {
    guard_.emplace(config);
    site_.emplace(std::vector<std::string>{});
    site_->browser().add_extension(&*guard_);
    auto page = site_->open();
    write_as("https://connect.facebook.net/fbevents.js",
             "_fbp=fb.1.1746.868308499845957651; Path=/", *page);
    write_as("https://www.shop.example/app.js", "sess=abc123; Path=/", *page);
    return page;
  }

  void write_as(const std::string& url, const std::string& line,
                browser::Page& page) {
    const auto ctx = context_for_url(url);
    page.run_as(ctx, [&](script::PageServices& services) {
      services.document_cookie_write(ctx, line);
    });
  }

  std::string read_as(const std::string& url, browser::Page& page) {
    const auto ctx = context_for_url(url);
    std::string out;
    page.run_as(ctx, [&](script::PageServices& services) {
      out = services.document_cookie_read(ctx);
    });
    return out;
  }

  std::optional<CookieGuard> guard_;
  std::optional<TestSite> site_;
};

TEST_F(CookieGuardTest, ScriptSeesOnlyItsOwnCookies) {
  auto page = open_with({});
  EXPECT_EQ(read_as("https://connect.facebook.net/fbevents.js", *page),
            "_fbp=fb.1.1746.868308499845957651");
  EXPECT_EQ(read_as("https://cdn.tracker.com/t.js", *page), "");
}

TEST_F(CookieGuardTest, SiteOwnerSeesEverything) {
  auto page = open_with({});
  const auto jar = read_as("https://www.shop.example/app.js", *page);
  EXPECT_NE(jar.find("_fbp="), std::string::npos);
  EXPECT_NE(jar.find("sess="), std::string::npos);
}

TEST_F(CookieGuardTest, SiteOwnerFullAccessCanBeDisabled) {
  CookieGuardConfig config;
  config.site_owner_full_access = false;
  auto page = open_with(config);
  EXPECT_EQ(read_as("https://www.shop.example/app.js", *page),
            "sess=abc123");
}

TEST_F(CookieGuardTest, SubdomainOfOwnerCountsAsOwner) {
  auto page = open_with({});
  // Different host, same eTLD+1 as the visited site.
  const auto jar = read_as("https://static.shop.example/bundle.js", *page);
  EXPECT_NE(jar.find("_fbp="), std::string::npos);
}

TEST_F(CookieGuardTest, CrossDomainOverwriteBlocked) {
  auto page = open_with({});
  write_as("https://ads.pubmatic.com/pwt.js", "_fbp=hijacked; Path=/", *page);
  EXPECT_EQ(site_->browser().jar().find("_fbp", "www.shop.example", "/")
                ->value,
            "fb.1.1746.868308499845957651");
  EXPECT_EQ(guard_->stats().writes_blocked, 1u);
}

TEST_F(CookieGuardTest, CrossDomainDeleteBlocked) {
  auto page = open_with({});
  write_as("https://cdn-cookieyes.com/script.js",
           "_fbp=; Path=/; Expires=Thu, 01 Jan 1970 00:00:00 GMT", *page);
  EXPECT_TRUE(site_->browser()
                  .jar()
                  .find("_fbp", "www.shop.example", "/")
                  .has_value());
}

TEST_F(CookieGuardTest, OwnerMayOverwriteAndDeleteItsCookie) {
  auto page = open_with({});
  write_as("https://connect.facebook.net/fbevents.js",
           "_fbp=fb.2.99.123456789012345678; Path=/", *page);
  EXPECT_EQ(site_->browser().jar().find("_fbp", "www.shop.example", "/")
                ->value,
            "fb.2.99.123456789012345678");
  write_as("https://connect.facebook.net/fbevents.js",
           "_fbp=; Path=/; Max-Age=-1", *page);
  EXPECT_FALSE(site_->browser()
                   .jar()
                   .find("_fbp", "www.shop.example", "/")
                   .has_value());
}

TEST_F(CookieGuardTest, NewCookieCreationAlwaysAllowed) {
  auto page = open_with({});
  write_as("https://new.vendor.com/v.js", "fresh=1; Path=/", *page);
  EXPECT_TRUE(site_->browser()
                  .jar()
                  .find("fresh", "www.shop.example", "/")
                  .has_value());
  EXPECT_EQ(guard_->store().creator("fresh"), "vendor.com");
}

TEST_F(CookieGuardTest, InlineScriptsDeniedByDefault) {
  auto page = open_with({});
  const auto ctx = inline_context();
  std::string jar = "unset";
  page->run_as(ctx, [&](script::PageServices& services) {
    jar = services.document_cookie_read(ctx);
    services.document_cookie_write(ctx, "inlined=1; Path=/");
  });
  EXPECT_EQ(jar, "");
  EXPECT_FALSE(site_->browser()
                   .jar()
                   .find("inlined", "www.shop.example", "/")
                   .has_value());
  EXPECT_GE(guard_->stats().inline_denied, 2u);
}

TEST_F(CookieGuardTest, InlineDenialCanBeDisabled) {
  CookieGuardConfig config;
  config.deny_inline_scripts = false;
  auto page = open_with(config);
  const auto ctx = inline_context();
  std::string jar;
  page->run_as(ctx, [&](script::PageServices& services) {
    jar = services.document_cookie_read(ctx);
  });
  EXPECT_NE(jar.find("_fbp="), std::string::npos);
}

TEST_F(CookieGuardTest, EntityGroupingGrantsSameEntityAccess) {
  CookieGuardConfig config;
  config.entity_grouping = true;
  auto page = open_with(config);
  // fbcdn.net and facebook.net are both Meta (the facebook.com Messenger
  // case of §7.2).
  const auto jar = read_as("https://static.fbcdn.net/chat.js", *page);
  EXPECT_NE(jar.find("_fbp="), std::string::npos);
  // An unrelated domain still sees nothing.
  EXPECT_EQ(read_as("https://cdn.tracker.com/t.js", *page), "");
}

TEST_F(CookieGuardTest, WithoutGroupingSameEntityIsBlocked) {
  auto page = open_with({});
  EXPECT_EQ(read_as("https://static.fbcdn.net/chat.js", *page), "");
}

TEST_F(CookieGuardTest, PerSitePolicyGrantsFullAccess) {
  CookieGuardConfig config;
  config.per_site_allowlist["shop.example"].insert("live.com");
  auto page = open_with(config);
  const auto jar = read_as("https://login.live.com/auth.js", *page);
  EXPECT_NE(jar.find("_fbp="), std::string::npos);
  EXPECT_NE(jar.find("sess="), std::string::npos);
}

TEST_F(CookieGuardTest, PerSitePolicyIsSiteScoped) {
  CookieGuardConfig config;
  config.per_site_allowlist["othersite.example"].insert("live.com");
  auto page = open_with(config);
  EXPECT_EQ(read_as("https://login.live.com/auth.js", *page), "");
}

TEST_F(CookieGuardTest, HttpSetCookieAttributedToResponseSite) {
  CookieGuardConfig config;
  guard_.emplace(config);
  site_.emplace(std::vector<std::string>{});
  site_->browser().network().register_host(
      "www.shop.example", [](const net::HttpRequest& req) {
        net::HttpResponse res;
        if (req.destination == net::RequestDestination::kDocument) {
          res.headers.add("Set-Cookie", "srv=fromserver; Path=/");
        }
        return res;
      });
  site_->browser().add_extension(&*guard_);
  auto page = site_->open();
  EXPECT_EQ(guard_->store().creator("srv"), "shop.example");
  // Site-owner script can read it; a tracker cannot.
  EXPECT_EQ(read_as("https://www.shop.example/app.js", *page),
            "srv=fromserver");
  EXPECT_EQ(read_as("https://cdn.tracker.com/t.js", *page), "");
}

TEST_F(CookieGuardTest, HttpResetReattributesCreator) {
  // The cnn.com minor-breakage mechanism (§7.2): a script-created cookie
  // re-emitted by the server flips its recorded creator to the first party,
  // after which the identity provider can no longer see it.
  auto page = open_with({});
  EXPECT_EQ(guard_->store().creator("_fbp"), "facebook.net");

  // Server re-sets _fbp with the same value.
  net::HttpRequest req;
  req.url = net::Url::must_parse("https://www.shop.example/reload");
  req.destination = net::RequestDestination::kDocument;
  net::HttpResponse res;
  const auto change = site_->browser().jar().set(
      req.url,
      *net::parse_set_cookie("_fbp=fb.1.1746.868308499845957651; Path=/"),
      site_->browser().clock().now(), cookies::JarApi::kHttp);
  guard_->on_headers_received(*page, req, res, {change});

  EXPECT_EQ(guard_->store().creator("_fbp"), "shop.example");
  EXPECT_EQ(read_as("https://connect.facebook.net/fbevents.js", *page), "");
}

TEST_F(CookieGuardTest, StoreReadFilteredPerOrigin) {
  auto page = open_with({});
  const auto shopify =
      context_for_url("https://cdn.shopifycloud.com/perf.js");
  page->run_as(shopify, [&](script::PageServices& services) {
    services.cookie_store_set(shopify, "keep_alive", "aaaabbbbcccc");
  });
  page->loop().run_until_idle();

  std::vector<script::StoreCookie> seen;
  page->run_as(shopify, [&](script::PageServices& services) {
    services.cookie_store_get_all(
        shopify,
        [&](std::vector<script::StoreCookie> cookies) { seen = cookies; });
  });
  page->loop().run_until_idle();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].name, "keep_alive");  // _fbp and sess filtered out
}

TEST_F(CookieGuardTest, StoreDeleteCrossDomainBlocked) {
  auto page = open_with({});
  const auto tracker = context_for_url("https://cdn.tracker.com/t.js");
  page->run_as(tracker, [&](script::PageServices& services) {
    services.cookie_store_delete(tracker, "_fbp");
  });
  page->loop().run_until_idle();
  EXPECT_TRUE(site_->browser()
                  .jar()
                  .find("_fbp", "www.shop.example", "/")
                  .has_value());
  EXPECT_EQ(guard_->stats().writes_blocked, 1u);
}

TEST_F(CookieGuardTest, DeletionErasesMetadataAllowingReclaim) {
  auto page = open_with({});
  // Owner deletes its cookie; afterwards another domain may create a cookie
  // of the same name and becomes the new owner.
  write_as("https://connect.facebook.net/fbevents.js",
           "_fbp=; Path=/; Max-Age=-1", *page);
  EXPECT_FALSE(guard_->store().creator("_fbp").has_value());
  write_as("https://other.vendor.net/v.js", "_fbp=mine123456; Path=/",
           *page);
  EXPECT_EQ(guard_->store().creator("_fbp"), "vendor.net");
}

TEST_F(CookieGuardTest, VisitStartResetsStoreButKeepsStats) {
  auto page = open_with({});
  write_as("https://ads.pubmatic.com/pwt.js", "_fbp=hijack; Path=/", *page);
  EXPECT_GT(guard_->store().size(), 0u);
  EXPECT_EQ(guard_->stats().writes_blocked, 1u);
  guard_->on_visit_start(site_->browser());
  EXPECT_EQ(guard_->store().size(), 0u);
  // Stats are crawl-cumulative (Figure 5 reports fleet-wide counts).
  EXPECT_EQ(guard_->stats().writes_blocked, 1u);
}

TEST_F(CookieGuardTest, ReadsFilteredCounterTracksHiddenCookies) {
  auto page = open_with({});
  read_as("https://cdn.tracker.com/t.js", *page);  // hides both cookies
  EXPECT_EQ(guard_->stats().reads_filtered, 1u);
  EXPECT_EQ(guard_->stats().cookies_hidden, 2u);
}

TEST(MetadataStoreTest, RecordLookupEraseSnapshot) {
  MetadataStore store;
  store.record("_ga", "googletagmanager.com");
  store.record("_fbp", "facebook.net");
  EXPECT_EQ(store.creator("_ga"), "googletagmanager.com");
  EXPECT_FALSE(store.creator("nope").has_value());
  store.record("_ga", "google-analytics.com");  // re-attribution
  EXPECT_EQ(store.creator("_ga"), "google-analytics.com");
  const auto snapshot = store.snapshot();
  EXPECT_EQ(snapshot.size(), 2u);
  store.erase("_ga");
  EXPECT_FALSE(store.creator("_ga").has_value());
  EXPECT_EQ(snapshot.size(), 2u);  // snapshot is a copy
}

}  // namespace
}  // namespace cg::cookieguard

// Appended: §8 counter-evasion — CNAME uncloaking and behaviour signatures.
namespace cg::cookieguard {
namespace {

using testsupport::TestSite;

TEST(SignatureDbTest, SignatureStableAcrossDelays) {
  script::ScriptSpec a;
  a.id = "a";
  a.ops = {script::set_cookie("_ga", "GA1.1.{rand:9}.{ts}"),
           script::run_async(300, {script::exfiltrate({"_ga"}, "x.com")})};
  script::ScriptSpec b = a;
  b.id = "b";
  b.ops[1].delay_ms = 1700;  // different scheduling, same behaviour
  EXPECT_EQ(SignatureDb::signature_of(a), SignatureDb::signature_of(b));
}

TEST(SignatureDbTest, DifferentBehavioursDiffer) {
  script::ScriptSpec a;
  a.ops = {script::set_cookie("_ga", "x")};
  script::ScriptSpec b;
  b.ops = {script::set_cookie("_gid", "x")};
  EXPECT_NE(SignatureDb::signature_of(a), SignatureDb::signature_of(b));
}

TEST(SignatureDbTest, BuildFromCatalogSkipsTemplatedAndInline) {
  browser::ScriptCatalog catalog;
  catalog.add(testsupport::spec_of("vendor", "https://cdn.vendor.com/v.js",
                                   script::Category::kAnalytics,
                                   {script::set_cookie("_v", "{hex:8}")}));
  catalog.add(testsupport::spec_of("fp", "https://{site}/app.js",
                                   script::Category::kFirstParty,
                                   {script::set_cookie("s", "{hex:8}")}));
  script::ScriptSpec inline_spec;
  inline_spec.id = "inline-copy";
  inline_spec.is_inline = true;
  inline_spec.ops = {script::set_cookie("_v", "{hex:8}")};
  catalog.add(inline_spec);

  SignatureDb db;
  db.build_from_catalog(catalog);
  EXPECT_EQ(db.size(), 1u);  // only the vendor script
  EXPECT_EQ(db.match_inline(catalog, "inline-copy"), "vendor.com");
}

TEST(CookieGuardEvasionTest, CloakedScriptPassesAsOwnerWithoutUncloaking) {
  TestSite site;
  site.browser().dns().add_cname("metrics.shop.example",
                                 "collect.cloaktrack.net");
  CookieGuard guard;
  site.browser().add_extension(&guard);
  auto page = site.open();

  // A vendor sets a cookie; the cloaked script reads the jar.
  const auto vendor =
      testsupport::context_for_url("https://connect.facebook.net/f.js");
  page->run_as(vendor, [&](script::PageServices& services) {
    services.document_cookie_write(vendor, "_fbp=fb.1.1.8683; Path=/");
  });
  const auto cloaked = testsupport::context_for_url(
      "https://metrics.shop.example/ct.js");
  std::string seen;
  page->run_as(cloaked, [&](script::PageServices& services) {
    seen = services.document_cookie_read(cloaked);
  });
  EXPECT_NE(seen.find("_fbp="), std::string::npos);  // full jar: evasion!
}

TEST(CookieGuardEvasionTest, UncloakingDemotesCloakedScript) {
  TestSite site;
  site.browser().dns().add_cname("metrics.shop.example",
                                 "collect.cloaktrack.net");
  CookieGuardConfig config;
  config.resolve_cname_cloaking = true;
  CookieGuard guard(config);
  site.browser().add_extension(&guard);
  auto page = site.open();

  const auto vendor =
      testsupport::context_for_url("https://connect.facebook.net/f.js");
  page->run_as(vendor, [&](script::PageServices& services) {
    services.document_cookie_write(vendor, "_fbp=fb.1.1.8683; Path=/");
  });
  const auto cloaked = testsupport::context_for_url(
      "https://metrics.shop.example/ct.js");
  std::string seen = "unset";
  page->run_as(cloaked, [&](script::PageServices& services) {
    services.document_cookie_write(cloaked, "_sA=abcdef0123456789; Path=/");
    seen = services.document_cookie_read(cloaked);
  });
  EXPECT_EQ(seen, "_sA=abcdef0123456789");  // only its own cookie
  // Ownership was recorded under the canonical tracker domain.
  EXPECT_EQ(guard.store().creator("_sA"), "cloaktrack.net");
}

TEST(CookieGuardEvasionTest, UncloakingLeavesHonestSubdomainsAlone) {
  TestSite site;  // no CNAME records at all
  CookieGuardConfig config;
  config.resolve_cname_cloaking = true;
  CookieGuard guard(config);
  site.browser().add_extension(&guard);
  auto page = site.open();
  const auto own = testsupport::context_for_url(
      "https://static.shop.example/bundle.js");
  const auto vendor =
      testsupport::context_for_url("https://connect.facebook.net/f.js");
  page->run_as(vendor, [&](script::PageServices& services) {
    services.document_cookie_write(vendor, "_fbp=fb.1.1.8683; Path=/");
  });
  std::string seen;
  page->run_as(own, [&](script::PageServices& services) {
    seen = services.document_cookie_read(own);
  });
  EXPECT_NE(seen.find("_fbp="), std::string::npos);  // still the site owner
}

TEST(CookieGuardEvasionTest, SignatureMatchingRestoresInlineVendorCopy) {
  TestSite site({"inline-copy"});
  site.catalog().add(testsupport::spec_of(
      "gtag", "https://www.googletagmanager.com/gtag/js",
      script::Category::kAnalytics,
      {script::set_cookie("_ga", "GA1.1.{rand:9}.{ts}", "; Path=/", false)}));
  script::ScriptSpec inline_copy;
  inline_copy.id = "inline-copy";
  inline_copy.category = script::Category::kAnalytics;
  inline_copy.is_inline = true;
  inline_copy.ops = {
      script::set_cookie("_ga", "GA1.1.{rand:9}.{ts}", "; Path=/", false)};
  site.catalog().add(inline_copy);

  SignatureDb signatures;
  signatures.build_from_catalog(site.catalog());
  CookieGuardConfig config;
  config.signature_db = &signatures;
  CookieGuard guard(config);
  site.browser().add_extension(&guard);

  site.open();  // the inline copy runs during load
  ASSERT_TRUE(site.browser().jar().find("_ga", "www.shop.example", "/"));
  EXPECT_EQ(guard.store().creator("_ga"), "googletagmanager.com");
}

TEST(CookieGuardEvasionTest, UnknownInlineStillDeniedWithSignatures) {
  TestSite site({"inline-unknown"});
  script::ScriptSpec unknown;
  unknown.id = "inline-unknown";
  unknown.is_inline = true;
  unknown.ops = {
      script::set_cookie("sneaky", "{hex:16}", "; Path=/", false)};
  site.catalog().add(unknown);

  SignatureDb signatures;
  signatures.build_from_catalog(site.catalog());
  CookieGuardConfig config;
  config.signature_db = &signatures;
  CookieGuard guard(config);
  site.browser().add_extension(&guard);

  site.open();
  EXPECT_FALSE(site.browser()
                   .jar()
                   .find("sneaky", "www.shop.example", "/")
                   .has_value());
}

}  // namespace
}  // namespace cg::cookieguard

// Appended: cookieStore.get is filtered like every other read.
namespace cg::cookieguard {
namespace {

TEST(CookieGuardStoreGetTest, SingleGetFilteredPerOrigin) {
  testsupport::TestSite site;
  CookieGuard guard;
  site.browser().add_extension(&guard);
  auto page = site.open();

  const auto owner =
      testsupport::context_for_url("https://connect.facebook.net/f.js");
  page->run_as(owner, [&](script::PageServices& services) {
    services.document_cookie_write(owner, "_fbp=fb.1.1.8683; Path=/");
  });

  const auto thief = testsupport::context_for_url("https://cdn.thief.io/t.js");
  bool thief_saw = true;
  page->run_as(thief, [&](script::PageServices& services) {
    services.cookie_store_get(thief, "_fbp",
                              [&](std::optional<script::StoreCookie> c) {
                                thief_saw = c.has_value();
                              });
  });
  page->loop().run_until_idle();
  EXPECT_FALSE(thief_saw);

  bool owner_saw = false;
  page->run_as(owner, [&](script::PageServices& services) {
    services.cookie_store_get(owner, "_fbp",
                              [&](std::optional<script::StoreCookie> c) {
                                owner_saw = c.has_value();
                              });
  });
  page->loop().run_until_idle();
  EXPECT_TRUE(owner_saw);
}

TEST(DeploymentTest, EachWorkerGetsItsOwnGuard) {
  Deployment deployment(3);
  const auto factory = deployment.factory();
  std::set<browser::Extension*> distinct;
  for (int worker = 0; worker < 3; ++worker) {
    const auto installed = factory(worker);
    ASSERT_EQ(installed.size(), 1u);
    ASSERT_NE(dynamic_cast<CookieGuard*>(installed.front()), nullptr);
    EXPECT_EQ(factory(worker), installed);  // stable per worker
    distinct.insert(installed.front());
  }
  EXPECT_EQ(distinct.size(), 3u);
}

TEST(DeploymentTest, StatsAreTheSumOfTheWorkersStats) {
  Deployment deployment(3);
  const auto factory = deployment.factory();
  CookieGuard::Stats expected;
  for (int worker = 0; worker < 3; ++worker) {
    auto* guard = dynamic_cast<CookieGuard*>(factory(worker).front());
    ASSERT_NE(guard, nullptr);
    // Worker w's guard filters w + 1 reads and blocks w overwrites, so a
    // sum that dropped or repeated a worker would not match.
    TestSite site;
    site.browser().add_extension(guard);
    auto page = site.open();
    const auto owner = context_for_url("https://connect.facebook.net/f.js");
    const auto tracker = context_for_url("https://cdn.tracker.com/t.js");
    page->run_as(owner, [&](script::PageServices& services) {
      services.document_cookie_write(owner, "_fbp=fb.1.1.8683; Path=/");
    });
    page->run_as(tracker, [&](script::PageServices& services) {
      for (int i = 0; i <= worker; ++i) services.document_cookie_read(tracker);
      for (int i = 0; i < worker; ++i) {
        services.document_cookie_write(tracker, "_fbp=stolen; Path=/");
      }
    });
    EXPECT_EQ(guard->stats().reads_filtered,
              static_cast<std::uint64_t>(worker + 1));
    EXPECT_EQ(guard->stats().writes_blocked,
              static_cast<std::uint64_t>(worker));
    expected.merge(guard->stats());
  }
  const auto total = deployment.stats();
  EXPECT_EQ(total.reads_filtered, 6u);
  EXPECT_EQ(total.writes_blocked, 3u);
  EXPECT_EQ(total.reads_filtered, expected.reads_filtered);
  EXPECT_EQ(total.cookies_hidden, expected.cookies_hidden);
  EXPECT_EQ(total.writes_blocked, expected.writes_blocked);
  EXPECT_EQ(total.inline_denied, expected.inline_denied);
}

}  // namespace
}  // namespace cg::cookieguard
