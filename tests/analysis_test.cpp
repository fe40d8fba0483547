// Tests for the analysis framework: ownership timelines, cross-domain
// action classification, encoded exfiltration matching, aggregation.
#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "crypto/base64.h"
#include "crypto/md5.h"
#include "crypto/sha1.h"
#include "entities/entity_map.h"

namespace cg::analysis {
namespace {

using cookies::CookieChange;
using cookies::CookieSource;
using instrument::VisitLog;

VisitLog base_log() {
  VisitLog log;
  log.site_host = "www.example.com";
  log.site = "example.com";
  log.has_cookie_logs = true;
  log.has_request_logs = true;
  log.pages_visited = 1;
  return log;
}

instrument::ScriptCookieSetRecord set_record(
    const std::string& name, const std::string& value,
    const std::string& domain, TimeMillis t,
    CookieChange::Type type = CookieChange::Type::kCreated,
    CookieSource api = CookieSource::kDocumentCookie) {
  instrument::ScriptCookieSetRecord r;
  r.cookie_name = name;
  r.value = value;
  r.setter_domain = domain;
  r.setter_url = domain.empty() ? "" : "https://cdn." + domain + "/s.js";
  r.true_domain = domain;
  r.api = api;
  r.change_type = type;
  r.time = t;
  return r;
}

instrument::RequestRecord request(const std::string& url,
                                  const std::string& initiator_domain,
                                  TimeMillis t) {
  instrument::RequestRecord r;
  r.url = url;
  const auto parsed = net::Url::must_parse(url);
  r.host = parsed.host();
  r.dest_domain = parsed.site();
  r.initiator_domain = initiator_domain;
  r.initiator_url = "https://cdn." + initiator_domain + "/s.js";
  r.destination = net::RequestDestination::kXhr;
  r.time = t;
  return r;
}

class AnalyzerTest : public ::testing::Test {
 protected:
  Analyzer analyzer_{entities::EntityMap::builtin()};
};

TEST_F(AnalyzerTest, IncompleteVisitsExcludedFromActionAnalysis) {
  auto log = base_log();
  log.has_request_logs = false;
  log.script_sets.push_back(
      set_record("_ga", "GA1.1.123456789.1746", "googletagmanager.com", 1));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_crawled, 1);
  EXPECT_EQ(analyzer_.totals().sites_complete, 0);
  EXPECT_TRUE(analyzer_.summary().pairs.empty());
}

TEST_F(AnalyzerTest, FirstSetterOwnsThePair) {
  auto log = base_log();
  log.script_sets.push_back(
      set_record("_ga", "GA1.1.111111111.1746", "googletagmanager.com", 1));
  log.script_sets.push_back(set_record("_ga", "GA1.2.222222222.1746",
                                       "google-analytics.com", 2,
                                       CookieChange::Type::kOverwritten));
  analyzer_.ingest(log);
  const CookiePair pair{"_ga", "googletagmanager.com"};
  ASSERT_TRUE(analyzer_.summary().pairs.count(pair));
  const auto& stats = analyzer_.summary().pairs.at(pair);
  // google-analytics.com ≠ googletagmanager.com: cross-domain overwrite,
  // even though both are Google (the paper compares domains, not entities).
  EXPECT_EQ(stats.overwriter_entities.count("Google"), 1u);
  EXPECT_EQ(analyzer_.totals().sites_doc_overwrite, 1);
}

TEST_F(AnalyzerTest, SameDomainOverwriteIsAuthorized) {
  auto log = base_log();
  log.script_sets.push_back(set_record("_t", "val1val1val1", "tracker.com", 1));
  log.script_sets.push_back(set_record("_t", "val2val2val2", "tracker.com", 2,
                                       CookieChange::Type::kOverwritten));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_doc_overwrite, 0);
  EXPECT_EQ(
      analyzer_.summary().overwritten_pair_count(CookieSource::kDocumentCookie),
      0);
}

TEST_F(AnalyzerTest, CrossDomainDeletionTracked) {
  auto log = base_log();
  log.script_sets.push_back(
      set_record("_fbp", "fb.1.1746.868308499845957651", "facebook.net", 1));
  log.script_sets.push_back(set_record("_fbp", "", "cdn-cookieyes.com", 2,
                                       CookieChange::Type::kDeleted));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_doc_delete, 1);
  const auto top = analyzer_.summary().top_deleted(5);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].pair.name, "_fbp");
  EXPECT_EQ(top[0].stats->deleter_entities.count("CookieYes"), 1u);
}

TEST_F(AnalyzerTest, RecreationAfterDeletionStartsNewPair) {
  auto log = base_log();
  log.script_sets.push_back(set_record("k", "aaaaaaaaaaaa", "a.com", 1));
  log.script_sets.push_back(
      set_record("k", "", "b.com", 2, CookieChange::Type::kDeleted));
  log.script_sets.push_back(set_record("k", "bbbbbbbbbbbb", "b.com", 3));
  analyzer_.ingest(log);
  EXPECT_TRUE(analyzer_.summary().pairs.count({"k", "a.com"}));
  EXPECT_TRUE(analyzer_.summary().pairs.count({"k", "b.com"}));
}

TEST_F(AnalyzerTest, ExfiltrationDetectedRaw) {
  auto log = base_log();
  log.script_sets.push_back(
      set_record("_ga", "GA1.1.444332364.1746838827", "googletagmanager.com",
                 1));
  log.requests.push_back(request(
      "https://bat.bing.com/action?ga=444332364&t=9", "bing.com", 5));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_doc_exfil, 1);
  const auto& stats =
      analyzer_.summary().pairs.at({"_ga", "googletagmanager.com"});
  EXPECT_EQ(stats.exfiltrator_entities.count("Microsoft"), 1u);
  EXPECT_EQ(stats.destination_entities.count("Microsoft"), 1u);
}

TEST_F(AnalyzerTest, ExfiltrationDetectedBase64Md5Sha1) {
  const std::string id = "868308499845957651";
  for (const std::string& encoded :
       {crypto::base64_encode(id), crypto::Md5::hex(id),
        crypto::Sha1::hex(id)}) {
    Analyzer analyzer(entities::EntityMap::builtin());
    auto log = base_log();
    log.script_sets.push_back(
        set_record("_fbp", "fb.1.174674." + id, "facebook.net", 1));
    log.requests.push_back(request(
        "https://sslwidget.criteo.com/event?fbp=" + encoded, "osano.com", 5));
    analyzer.ingest(log);
    EXPECT_EQ(analyzer.totals().sites_doc_exfil, 1) << encoded;
    const auto& stats = analyzer.summary().pairs.at({"_fbp", "facebook.net"});
    EXPECT_EQ(stats.exfiltrator_entities.count("Osano"), 1u);
    EXPECT_EQ(stats.destination_entities.count("Criteo"), 1u);
  }
}

TEST_F(AnalyzerTest, OwnerExfiltrationIsAuthorized) {
  auto log = base_log();
  log.script_sets.push_back(
      set_record("_ga", "GA1.1.444332364.1746838827", "google-analytics.com",
                 1));
  log.requests.push_back(
      request("https://www.google-analytics.com/collect?cid=444332364",
              "google-analytics.com", 5));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_doc_exfil, 0);
}

TEST_F(AnalyzerTest, AmbiguousSegmentsNeverMatch) {
  // Two different cookies share a timestamp segment: matching it would be a
  // false positive, so the analyzer drops it.
  auto log = base_log();
  log.script_sets.push_back(
      set_record("a", "xx.1746838827", "a-owner.com", 1));
  log.script_sets.push_back(
      set_record("b", "yy.1746838827", "b-owner.com", 2));
  log.requests.push_back(
      request("https://collector.com/c?t=1746838827", "reader.com", 5));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_doc_exfil, 0);
}

TEST_F(AnalyzerTest, CandidateMatchingIsInsertionOrderInvariant) {
  // Regression for the cglint D3 finding at analyzer.cpp:206: the candidate
  // identifier index must not leak container iteration order into results.
  // Two cookies set at the SAME virtual time are ingested in both vector
  // orders (stable_sort preserves them), so the candidate index is populated
  // in a different order each run; every observable output must agree —
  // including the ambiguity verdict for the segment their values share.
  const auto a = set_record("a_id", "shared.4443323641746", "a-owner.com", 1);
  const auto b = set_record("b_id", "shared.8683084998459", "b-owner.com", 1);
  const auto exfil_a = request(
      "https://collector.example/p?x=4443323641746", "reader.com", 5);
  const auto exfil_shared =
      request("https://collector.example/p?s=shared", "reader.com", 6);

  Analyzer first(entities::EntityMap::builtin());
  Analyzer second(entities::EntityMap::builtin());
  {
    auto log = base_log();
    log.script_sets = {a, b};
    log.requests = {exfil_a, exfil_shared};
    first.ingest(log);
  }
  {
    auto log = base_log();
    log.script_sets = {b, a};
    log.requests = {exfil_a, exfil_shared};
    second.ingest(log);
  }

  EXPECT_EQ(first.totals().sites_doc_exfil, second.totals().sites_doc_exfil);
  EXPECT_EQ(first.totals().script_set_events,
            second.totals().script_set_events);
  ASSERT_EQ(first.summary().pairs.size(), second.summary().pairs.size());
  auto it1 = first.summary().pairs.begin();
  auto it2 = second.summary().pairs.begin();
  for (; it1 != first.summary().pairs.end(); ++it1, ++it2) {
    EXPECT_EQ(it1->first, it2->first);
    EXPECT_EQ(it1->second.sites_set, it2->second.sites_set);
    EXPECT_EQ(it1->second.exfiltrator_entities,
              it2->second.exfiltrator_entities);
    EXPECT_EQ(it1->second.destination_entities,
              it2->second.destination_entities);
  }
  // The distinct segment matched; the shared one was ambiguous in BOTH runs
  // (regardless of which cookie claimed it first).
  EXPECT_TRUE(first.summary().pairs.at({"a_id", "a-owner.com"}).exfiltrated());
  EXPECT_FALSE(first.summary().pairs.at({"b_id", "b-owner.com"}).exfiltrated());
  EXPECT_FALSE(
      second.summary().pairs.at({"b_id", "b-owner.com"}).exfiltrated());
}

TEST_F(AnalyzerTest, ShortSegmentsIgnored) {
  auto log = base_log();
  log.script_sets.push_back(set_record("theme", "dark", "a.com", 1));
  log.requests.push_back(
      request("https://c.com/c?theme=dark", "reader.com", 5));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_doc_exfil, 0);
}

TEST_F(AnalyzerTest, CookieStoreActionsTrackedSeparately) {
  auto log = base_log();
  log.script_sets.push_back(
      set_record("keep_alive", "aaaabbbbcccc", "shopifycloud.com", 1,
                 CookieChange::Type::kCreated, CookieSource::kCookieStore));
  log.requests.push_back(request(
      "https://bat.bing.com/action?ka=aaaabbbbcccc", "bing.com", 5));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_store_exfil, 1);
  EXPECT_EQ(analyzer_.totals().sites_doc_exfil, 0);
  EXPECT_EQ(analyzer_.summary().pair_count(CookieSource::kCookieStore), 1);
  EXPECT_EQ(
      analyzer_.summary().exfiltrated_pair_count(CookieSource::kCookieStore),
      1);
}

TEST_F(AnalyzerTest, HttpFirstPartySetEstablishesOwnership) {
  auto log = base_log();
  instrument::HttpCookieSetRecord http;
  http.cookie_name = "srv_uid";
  http.value = "deadbeefcafe1234";
  http.response_host = "www.example.com";
  http.setter_domain = "example.com";
  http.first_party = true;
  http.time = 1;
  log.http_sets.push_back(http);
  log.requests.push_back(request(
      "https://sync.ads.net/s?u=deadbeefcafe1234", "adsvendor.net", 5));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_doc_exfil, 1);
  EXPECT_TRUE(analyzer_.summary().pairs.count({"srv_uid", "example.com"}));
}

TEST_F(AnalyzerTest, HttpOnlyHeaderCookiesOutOfScope) {
  auto log = base_log();
  instrument::HttpCookieSetRecord http;
  http.cookie_name = "sid";
  http.value = "secretsecret1234";
  http.setter_domain = "example.com";
  http.first_party = true;
  http.http_only = true;
  http.time = 1;
  log.http_sets.push_back(http);
  analyzer_.ingest(log);
  EXPECT_TRUE(analyzer_.summary().pairs.empty());
}

TEST_F(AnalyzerTest, InlineSetterFoldedIntoFirstParty) {
  auto log = base_log();
  log.script_sets.push_back(set_record("x", "0123456789abcdef", "", 1));
  analyzer_.ingest(log);
  EXPECT_TRUE(analyzer_.summary().pairs.count({"x", "example.com"}));
  EXPECT_EQ(analyzer_.totals().attribution_unknown, 1);
}

TEST_F(AnalyzerTest, OverwriteAttributeDiffsAggregated) {
  auto log = base_log();
  log.script_sets.push_back(set_record("k", "aaaaaaaaaaaa", "a.com", 1));
  auto over = set_record("k", "bbbbbbbbbbbb", "b.com", 2,
                         CookieChange::Type::kOverwritten);
  over.value_changed = true;
  over.expires_changed = true;
  log.script_sets.push_back(over);
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().cross_overwrites, 1);
  EXPECT_EQ(analyzer_.totals().overwrite_value_changed, 1);
  EXPECT_EQ(analyzer_.totals().overwrite_expires_changed, 1);
  EXPECT_EQ(analyzer_.totals().overwrite_domain_changed, 0);
}

TEST_F(AnalyzerTest, RankingsSortByEntityCounts) {
  auto log = base_log();
  log.script_sets.push_back(
      set_record("_ga", "GA1.1.444332364.1746838827", "googletagmanager.com",
                 1));
  log.script_sets.push_back(
      set_record("_mk", "id8765432187654321", "marketo.net", 2));
  // _ga exfiltrated to two destinations, _mk to one.
  log.requests.push_back(request(
      "https://bat.bing.com/a?g=444332364", "bing.com", 5));
  log.requests.push_back(request(
      "https://mc.yandex.ru/watch?g=444332364", "yandex.ru", 6));
  log.requests.push_back(request(
      "https://track.hubspot.com/p?m=id8765432187654321", "hubspot.com", 7));
  analyzer_.ingest(log);
  const auto top = analyzer_.summary().top_exfiltrated(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].pair.name, "_ga");
  EXPECT_EQ(top[0].stats->destination_entities.size(), 2u);
  const auto domains = analyzer_.summary().top_exfiltrator_domains(10);
  ASSERT_EQ(domains.size(), 3u);
  EXPECT_EQ(domains[0].second, 1);
}

TEST_F(AnalyzerTest, PairUniquenessAcrossSites) {
  // The same (name, owner) pair on two sites stays one pair; the same name
  // with a different owner is a second pair (footnote 2 of the paper).
  for (int i = 0; i < 2; ++i) {
    auto log = base_log();
    log.script_sets.push_back(set_record(
        "_ga", "GA1.1.123412341234.1", "googletagmanager.com", 1));
    analyzer_.ingest(log);
  }
  auto log = base_log();
  log.script_sets.push_back(
      set_record("_ga", "GA1.2.432143214321.1", "google-analytics.com", 1));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.summary().pair_count(CookieSource::kDocumentCookie), 2);
  EXPECT_EQ(analyzer_.summary().pairs
                .at({"_ga", "googletagmanager.com"})
                .sites_set,
            2);
}

TEST_F(AnalyzerTest, DomPilotCountsSitesOnce) {
  auto log = base_log();
  log.dom_mods.push_back({"ads.com", "widgets.com"});
  log.dom_mods.push_back({"other.com", "example.com"});
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_with_cross_dom_modification, 1);
}

TEST_F(AnalyzerTest, AttributionAccuracyBookkeeping) {
  auto log = base_log();
  auto good = set_record("a", "aaaaaaaaaaaa", "right.com", 1);
  good.true_domain = "right.com";
  auto bad = set_record("b", "bbbbbbbbbbbb", "helper.com", 2);
  bad.true_domain = "actual.com";
  log.script_sets.push_back(good);
  log.script_sets.push_back(bad);
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().attributed_sets, 2);
  EXPECT_EQ(analyzer_.totals().attribution_correct, 1);
}

TEST(TopCountsTest, SortsByCountThenName) {
  const std::map<std::string, int> counts = {
      {"b", 5}, {"a", 5}, {"c", 9}, {"d", 1}};
  const auto top = top_counts(counts, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, "c");
  EXPECT_EQ(top[1].first, "a");
  EXPECT_EQ(top[2].first, "b");
}

}  // namespace
}  // namespace cg::analysis

// Appended: §5.5 tracking-lifespan extension analysis.
namespace cg::analysis {
namespace {

TEST(LifespanTest, ExpiryExtensionTracked) {
  Analyzer analyzer(entities::EntityMap::builtin());
  auto log = base_log();
  log.script_sets.push_back(set_record("_fbp", "fb.1.174.868308499845",
                                       "facebook.net", 1));
  auto over = set_record("_fbp", "fb.2.175.999999999999", "pubmatic.com", 2,
                         CookieChange::Type::kOverwritten);
  over.expires_changed = true;
  over.prev_expires = 1746748800000;                       // +0 days
  over.new_expires = 1746748800000 + 30LL * 86400000;      // +30 days
  log.script_sets.push_back(over);
  analyzer.ingest(log);

  const auto& t = analyzer.totals();
  EXPECT_EQ(t.overwrite_expiry_extended, 1);
  EXPECT_EQ(t.overwrite_expiry_shortened, 0);
  EXPECT_NEAR(t.expiry_days_added, 30.0, 0.01);
}

TEST(LifespanTest, ShorteningCountedSeparately) {
  Analyzer analyzer(entities::EntityMap::builtin());
  auto log = base_log();
  log.script_sets.push_back(set_record("k", "aaaaaaaaaaaa", "a.com", 1));
  auto over = set_record("k", "bbbbbbbbbbbb", "b.com", 2,
                         CookieChange::Type::kOverwritten);
  over.expires_changed = true;
  over.prev_expires = 2000000000000;
  over.new_expires = 1900000000000;
  log.script_sets.push_back(over);
  analyzer.ingest(log);
  EXPECT_EQ(analyzer.totals().overwrite_expiry_extended, 0);
  EXPECT_EQ(analyzer.totals().overwrite_expiry_shortened, 1);
}

TEST(LifespanTest, SessionCookiesExcluded) {
  Analyzer analyzer(entities::EntityMap::builtin());
  auto log = base_log();
  log.script_sets.push_back(set_record("k", "aaaaaaaaaaaa", "a.com", 1));
  auto over = set_record("k", "bbbbbbbbbbbb", "b.com", 2,
                         CookieChange::Type::kOverwritten);
  over.expires_changed = true;
  over.prev_expires = 0;  // session cookie before: no defined lifetime delta
  over.new_expires = 2000000000000;
  log.script_sets.push_back(over);
  analyzer.ingest(log);
  EXPECT_EQ(analyzer.totals().overwrite_expiry_extended, 0);
  EXPECT_EQ(analyzer.totals().overwrite_expiry_shortened, 0);
}

}  // namespace
}  // namespace cg::analysis

// Appended: the fold/merge algebra behind batch analysis and the serving
// tier (analysis/fold.h).
namespace cg::analysis {
namespace {

TEST(FoldTest, FoldVisitIsPure) {
  auto log = base_log();
  log.script_sets.push_back(set_record("_ga", "GA1.2.1234567890",
                                       "google-analytics.com", 1));
  const auto& entities = entities::EntityMap::builtin();
  const SiteSummary a = fold_visit(entities, {}, log);
  const SiteSummary b = fold_visit(entities, {}, log);
  EXPECT_EQ(a.totals.script_set_events, b.totals.script_set_events);
  EXPECT_EQ(a.pairs.size(), b.pairs.size());
  EXPECT_EQ(a.setter_script_urls, b.setter_script_urls);
}

TEST(FoldTest, MergeKeepsFirstSettersCreationApi) {
  const auto& entities = entities::EntityMap::builtin();
  // Site 1 creates the pair via document.cookie; site 2 re-creates the same
  // (name, owner) pair via cookieStore. First-setter-wins: the merged pair
  // stays a document.cookie creation, with both sites counted.
  auto first = base_log();
  first.script_sets.push_back(set_record("k", "aaaaaaaaaaaa", "owner.com", 1));
  auto second = base_log();
  second.site = "other.com";
  second.site_host = "www.other.com";
  second.script_sets.push_back(
      set_record("k", "bbbbbbbbbbbb", "owner.com", 1,
                 cookies::CookieChange::Type::kCreated,
                 CookieSource::kCookieStore));

  SiteSummary merged = fold_visit(entities, {}, first);
  merged.merge(fold_visit(entities, {}, second));

  const CookiePair pair{"k", "owner.com"};
  ASSERT_TRUE(merged.pairs.count(pair));
  EXPECT_EQ(merged.pairs.at(pair).created_via,
            CookieSource::kDocumentCookie);
  EXPECT_EQ(merged.pairs.at(pair).sites_set, 2);
  // And merging in the opposite order keeps the *other* first setter.
  SiteSummary reversed = fold_visit(entities, {}, second);
  reversed.merge(fold_visit(entities, {}, first));
  EXPECT_EQ(reversed.pairs.at(pair).created_via,
            CookieSource::kCookieStore);
}

TEST(FoldTest, MergeRecomputesUniqueSetterScriptsExactly) {
  const auto& entities = entities::EntityMap::builtin();
  // The same setter URL appears on both sites: the summed upper bound would
  // say 2; the merged set must say 1.
  auto first = base_log();
  first.script_sets.push_back(set_record("a", "aaaaaaaaaaaa", "cdn.com", 1));
  auto second = base_log();
  second.site = "other.com";
  second.site_host = "www.other.com";
  second.script_sets.push_back(set_record("b", "bbbbbbbbbbbb", "cdn.com", 1));

  SiteSummary merged = fold_visit(entities, {}, first);
  merged.merge(fold_visit(entities, {}, second));
  EXPECT_EQ(merged.setter_script_urls.size(), 1u);
  EXPECT_EQ(merged.totals.unique_setter_scripts, 1);
}

TEST(FoldTest, AnalyzerIngestEqualsFoldMerge) {
  const auto& entities = entities::EntityMap::builtin();
  auto first = base_log();
  first.script_sets.push_back(set_record("x", "aaaaaaaaaaaa", "a.com", 1));
  auto second = base_log();
  second.site = "other.com";
  second.site_host = "www.other.com";
  second.script_sets.push_back(set_record("y", "bbbbbbbbbbbb", "b.com", 1));

  Analyzer sequential(entities);
  sequential.ingest(first);
  sequential.ingest(second);

  Analyzer applied(entities);
  SiteSummary folded = fold_visit(entities, {}, first);
  folded.merge(fold_visit(entities, {}, second));
  applied.apply(std::move(folded));

  EXPECT_EQ(sequential.totals().sites_crawled,
            applied.totals().sites_crawled);
  EXPECT_EQ(sequential.totals().script_set_events,
            applied.totals().script_set_events);
  EXPECT_EQ(sequential.summary().pairs.size(), applied.summary().pairs.size());
  EXPECT_EQ(sequential.summary().domains.size(),
            applied.summary().domains.size());
}

// Mean and median of one lifecycle metric (Table 4).
TEST(SummarizeTest, MeanAndMedian) {
  const auto s = summarize({100, 200, 300, 400, 1000});
  EXPECT_DOUBLE_EQ(s.mean_ms, 400.0);
  EXPECT_EQ(s.median_ms, 300);
}

TEST(SummarizeTest, EmptyInput) {
  const auto s = summarize({});
  EXPECT_DOUBLE_EQ(s.mean_ms, 0.0);
  EXPECT_EQ(s.median_ms, 0);
}

TEST(SummarizeTest, SingleSample) {
  const auto s = summarize({42});
  EXPECT_DOUBLE_EQ(s.mean_ms, 42.0);
  EXPECT_EQ(s.median_ms, 42);
}

}  // namespace
}  // namespace cg::analysis
