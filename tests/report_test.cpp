// Tests for the report module: JSON writer, CSV escaping, summary exports.
#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <sstream>

#include "analysis/analyzer.h"
#include "report/report.h"

namespace cg::report {
namespace {

TEST(JsonTest, Scalars) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7LL).dump(), "-7");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(JsonTest, EscapesStrings) {
  EXPECT_EQ(Json::escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(Json(std::string("\x01")).dump(), "\"\\u0001\"");
}

TEST(JsonTest, ObjectsSortedAndNested) {
  Json j = Json::object();
  j["b"] = 2;
  j["a"] = Json::array();
  j["a"].push_back(1);
  j["a"].push_back("x");
  EXPECT_EQ(j.dump(), "{\"a\":[1,\"x\"],\"b\":2}");
}

TEST(JsonTest, IndentedOutputIsStable) {
  Json j = Json::object();
  j["k"] = Json::object();
  j["k"]["v"] = 1;
  EXPECT_EQ(j.dump(2), "{\n  \"k\": {\n    \"v\": 1\n  }\n}");
}

TEST(JsonTest, NonFiniteDoublesSerializeAsNull) {
  // Regression guard: a bare `nan`/`inf` token is not valid JSON and breaks
  // every downstream parser (Perfetto, `cgsim trace-check`, report
  // re-ingestion). Non-finite doubles must degrade to null instead.
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "null");

  Json j = Json::object();
  j["rate"] = Json(std::numeric_limits<double>::quiet_NaN());
  j["ok"] = 1.5;
  const std::string text = j.dump();
  EXPECT_EQ(text, "{\"ok\":1.5,\"rate\":null}");
  // And the output must round-trip through our own parser.
  const auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->find("rate")->is_null());
}

TEST(JsonTest, EmptyContainers) {
  EXPECT_EQ(Json::object().dump(2), "{}");
  EXPECT_EQ(Json::array().dump(2), "[]");
}

TEST(CsvTest, EscapeRules) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

/// One complete visit on which bing.com exfiltrates googletagmanager.com's
/// _ga identifier.
instrument::VisitLog exfiltration_visit() {
  instrument::VisitLog log;
  log.site_host = "www.example.com";
  log.site = "example.com";
  log.has_cookie_logs = true;
  log.has_request_logs = true;
  instrument::ScriptCookieSetRecord set;
  set.cookie_name = "_ga";
  set.value = "GA1.1.444332364.1746838827";
  set.setter_domain = "googletagmanager.com";
  set.setter_url = "https://www.googletagmanager.com/gtag/js";
  set.true_domain = "googletagmanager.com";
  set.time = 1;
  log.script_sets.push_back(set);
  instrument::RequestRecord req;
  req.url = "https://bat.bing.com/a?g=444332364";
  req.host = "bat.bing.com";
  req.dest_domain = "bing.com";
  req.initiator_domain = "bing.com";
  req.time = 5;
  log.requests.push_back(req);
  return log;
}

/// Every section summary_to_json renders, and the rankings inside them.
const char* const kSections[] = {"totals",          "prevalence",
                                 "api_usage",       "table1",
                                 "top_exfiltrated", "top_exfiltrator_domains",
                                 "manipulation",    "dom_pilot"};
const char* const kManipulationRankings[] = {
    "top_overwritten", "top_deleted", "top_overwriter_domains",
    "top_deleter_domains"};

class ReportFixture : public ::testing::Test {
 protected:
  ReportFixture() : analyzer_(entities::EntityMap::builtin()) {
    analyzer_.ingest(exfiltration_visit());
  }
  analysis::Analyzer analyzer_;
};

TEST_F(ReportFixture, TotalsJsonCarriesCounters) {
  const auto json = totals_to_json(analyzer_.summary());
  const auto dumped = json.dump();
  EXPECT_NE(dumped.find("\"sites_doc_exfil\":1"), std::string::npos);
  EXPECT_NE(dumped.find("\"sites_complete\":1"), std::string::npos);
  EXPECT_NE(dumped.find("\"timings\""), std::string::npos);
}

TEST_F(ReportFixture, PairsCsvListsDetectedExfiltration) {
  std::ostringstream out;
  write_pairs_csv(analyzer_.summary(), 10, out);
  const auto csv = out.str();
  EXPECT_NE(csv.find("cookie_name,owner_domain,action"), std::string::npos);
  EXPECT_NE(csv.find("_ga,googletagmanager.com,exfiltrated,1,Microsoft"),
            std::string::npos);
}

TEST_F(ReportFixture, DomainsCsvMergesActionCounts) {
  std::ostringstream out;
  write_domains_csv(analyzer_.summary(), 10, out);
  EXPECT_NE(out.str().find("bing.com,1,0,0"), std::string::npos);
}

TEST_F(ReportFixture, SummaryJsonHasTopSections) {
  const Json summary = summary_to_json(analyzer_, 5);
  EXPECT_EQ(summary.size(), std::size(kSections));
  for (const char* section : kSections) {
    EXPECT_NE(summary.find(section), nullptr) << section;
  }
  const Json& top = *summary.find("top_exfiltrated");
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top.at(0).find("name")->as_string(), "_ga");
  EXPECT_EQ(top.at(0).find("top_destinations")->as_string(), "Microsoft");
  EXPECT_EQ(summary.find("top_exfiltrator_domains")->size(), 1u);
  const Json& table1 = *summary.find("table1");
  EXPECT_EQ(table1.find("sites_complete")->as_int(), 1);
  const Json& doc = *table1.find("document_cookie");
  EXPECT_EQ(doc.find("pct_sites_exfiltrating")->as_double(), 100.0);
}

TEST(ReportTotalsOnlyTest, TotalsOnlySummaryRendersEverySectionEmptyRanked) {
  // The 1M-site streaming configuration keeps only the counters: every
  // section still renders, with empty rankings and zero pair shares.
  analysis::Analyzer analyzer(entities::EntityMap::builtin(),
                              {.totals_only = true});
  analyzer.ingest(exfiltration_visit());
  const Json summary = summary_to_json(analyzer, 5);
  for (const char* section : kSections) {
    EXPECT_NE(summary.find(section), nullptr) << section;
  }
  EXPECT_EQ(summary.find("top_exfiltrated")->size(), 0u);
  EXPECT_EQ(summary.find("top_exfiltrator_domains")->size(), 0u);
  for (const char* ranking : kManipulationRankings) {
    EXPECT_EQ(summary.find("manipulation")->find(ranking)->size(), 0u)
        << ranking;
  }
  const Json& totals = *summary.find("totals");
  EXPECT_EQ(totals.find("sites_doc_exfil")->as_int(), 1);
  EXPECT_EQ(totals.find("unique_pairs")->as_int(), 0);
  const Json& doc = *summary.find("table1")->find("document_cookie");
  EXPECT_EQ(doc.find("pairs")->as_int(), 0);
  EXPECT_EQ(doc.find("pct_pairs_exfiltrated")->as_double(), 0.0);
  EXPECT_EQ(doc.find("pct_sites_exfiltrating")->as_double(), 100.0);
}

}  // namespace
}  // namespace cg::report

// Appended: JSON parser tests (checkpoint/resume reads these back).
namespace cg::report {
namespace {

TEST(JsonParseTest, RoundTripsEverythingDumpEmits) {
  auto j = Json::object();
  j["int"] = 42;
  j["neg"] = -7;
  j["big"] = std::int64_t{1746748800000};
  j["pi"] = 3.25;
  j["flag"] = true;
  j["off"] = false;
  j["nothing"] = nullptr;
  j["text"] = "line\nbreak\t\"quoted\" back\\slash";
  auto arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  auto nested = Json::object();
  nested["k"] = "v";
  arr.push_back(std::move(nested));
  j["arr"] = std::move(arr);

  for (const int indent : {0, 2}) {
    const auto parsed = Json::parse(j.dump(indent));
    ASSERT_TRUE(parsed.has_value()) << "indent=" << indent;
    EXPECT_EQ(parsed->dump(indent), j.dump(indent));
  }
}

TEST(JsonParseTest, Accessors) {
  const auto parsed = Json::parse(
      R"({"n": 3, "d": 1.5, "b": true, "s": "hi", "a": [10, 20, 30]})");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_object());
  EXPECT_EQ(parsed->find("n")->as_int(), 3);
  EXPECT_DOUBLE_EQ(parsed->find("d")->as_double(), 1.5);
  EXPECT_TRUE(parsed->find("b")->as_bool());
  EXPECT_EQ(parsed->find("s")->as_string(), "hi");
  EXPECT_EQ(parsed->find("missing"), nullptr);
  const auto* arr = parsed->find("a");
  ASSERT_NE(arr, nullptr);
  ASSERT_TRUE(arr->is_array());
  ASSERT_EQ(arr->size(), 3u);
  EXPECT_EQ(arr->at(1).as_int(), 20);
  // Fallbacks apply on type mismatch.
  EXPECT_EQ(parsed->find("s")->as_int(-1), -1);
  EXPECT_EQ(parsed->find("n")->as_string("fallback"), "fallback");
}

TEST(JsonParseTest, UnicodeEscapes) {
  const auto parsed = Json::parse(R"(["\u0041\u00e9\u20ac"])");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at(0).as_string(), "A\xC3\xA9\xE2\x82\xAC");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1, 2").has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(Json::parse("{\"a\": 1} trailing").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("nul").has_value());
  EXPECT_FALSE(Json::parse("-").has_value());
  EXPECT_FALSE(Json::parse("[\"\\q\"]").has_value());
  EXPECT_FALSE(Json::parse(R"(["\ud800"])").has_value());  // lone surrogate
}

TEST(JsonParseTest, DepthIsBounded) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_FALSE(Json::parse(deep).has_value());
  // Shallow nesting is fine.
  EXPECT_TRUE(Json::parse("[[[[[[[[42]]]]]]]]").has_value());
}

}  // namespace
}  // namespace cg::report
