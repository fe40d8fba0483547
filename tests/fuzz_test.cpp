// Robustness sweeps: the parsers at the trust boundary (URLs, Set-Cookie
// lines, cookie strings, query strings, dates) must never misbehave on
// arbitrary input — they process attacker-controlled bytes in a real
// deployment. Deterministic pseudo-fuzzing: thousands of generated inputs
// per parser, checking no-crash plus structural invariants.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cookies/cookie_jar.h"
#include "crawler/crawler.h"
#include "net/http_date.h"
#include "net/query.h"
#include "net/set_cookie.h"
#include "net/url.h"
#include "report/json.h"
#include "script/interpreter.h"
#include "script/rng.h"
#include "store/reader.h"
#include "store/record_codec.h"
#include "store/writer.h"

namespace cg {
namespace {

std::string random_bytes(script::Rng& rng, std::size_t max_len) {
  const std::size_t len = rng.below(max_len + 1);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng.below(256)));
  }
  return out;
}

// Printable-ish variant biased toward structural characters parsers care
// about.
std::string random_structured(script::Rng& rng, std::size_t max_len) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789"
      "=;,:./?&%#@{}[]()<>\"'\\ \t-_~+*";
  const std::size_t len = rng.below(max_len + 1);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[rng.below(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

TEST(FuzzTest, UrlParserNeverCrashesAndRoundTripsWhenAccepted) {
  script::Rng rng(0xF022);
  for (int i = 0; i < 4000; ++i) {
    const auto input = i % 2 == 0 ? random_bytes(rng, 120)
                                  : "https://" + random_structured(rng, 80);
    const auto url = net::Url::parse(input);
    if (!url) continue;
    // Accepted URLs must re-parse to themselves.
    const auto again = net::Url::parse(url->spec());
    ASSERT_TRUE(again.has_value()) << url->spec();
    EXPECT_EQ(again->origin(), url->origin());
    EXPECT_FALSE(url->host().empty());
  }
}

TEST(FuzzTest, SetCookieParserToleratesGarbage) {
  script::Rng rng(0xF0CC);
  for (int i = 0; i < 4000; ++i) {
    const auto input = i % 2 == 0 ? random_bytes(rng, 200)
                                  : random_structured(rng, 200);
    const auto parsed = net::parse_set_cookie(input);
    if (!parsed) continue;
    // Parsed names/values never contain the separators that would break
    // re-serialisation into a jar line.
    EXPECT_EQ(parsed->name.find(';'), std::string::npos);
    if (!parsed->path.empty()) {
      EXPECT_EQ(parsed->path.front(), '/');
    }
  }
}

TEST(FuzzTest, SetCookieSerializeRoundTripsParsedHeaders) {
  // Any header the parser accepts must survive serialize → re-parse with
  // every field intact (the attribute vocabulary includes Partitioned, the
  // CHIPS attribute the policy layer keys on).
  static constexpr const char* kAttrs[] = {
      "Secure",          "HttpOnly",        "Partitioned",
      "partitioned",     "Path=/a/b",       "Domain=fuzz-site.com",
      "Max-Age=3600",    "Max-Age=-1",      "SameSite=Lax",
      "SameSite=None",   "SameSite=Strict", "Expires=Wed, 09 Jun 2021 10:18:14 GMT",
      "Expires=garbage", "Path=relative",   "",
  };
  script::Rng rng(0xF0CD);
  for (int i = 0; i < 4000; ++i) {
    std::string input = random_structured(rng, 30);
    const std::size_t attrs = rng.below(5);
    for (std::size_t a = 0; a < attrs; ++a) {
      input += "; ";
      input += kAttrs[rng.below(sizeof(kAttrs) / sizeof(kAttrs[0]))];
    }
    const auto parsed = net::parse_set_cookie(input);
    if (!parsed) continue;
    const auto again = net::parse_set_cookie(net::serialize_set_cookie(*parsed));
    ASSERT_TRUE(again.has_value()) << input;
    EXPECT_EQ(again->name, parsed->name) << input;
    EXPECT_EQ(again->value, parsed->value) << input;
    EXPECT_EQ(again->domain, parsed->domain) << input;
    EXPECT_EQ(again->path, parsed->path) << input;
    EXPECT_EQ(again->expires, parsed->expires) << input;
    EXPECT_EQ(again->max_age_ms, parsed->max_age_ms) << input;
    EXPECT_EQ(again->secure, parsed->secure) << input;
    EXPECT_EQ(again->http_only, parsed->http_only) << input;
    EXPECT_EQ(again->same_site == net::SameSite::kUnspecified,
              parsed->same_site == net::SameSite::kUnspecified)
        << input;
    EXPECT_EQ(again->partitioned, parsed->partitioned) << input;
  }
}

TEST(FuzzTest, CookieJarSurvivesArbitraryWrites) {
  script::Rng rng(0x7A66);
  cookies::CookieJar jar;
  const auto url = net::Url::must_parse("https://www.fuzz-site.com/a/b");
  for (int i = 0; i < 3000; ++i) {
    jar.set_from_string(url, random_structured(rng, 150),
                        1746748800000 + i);
  }
  // Whatever landed must serialise and re-parse cleanly.
  const auto serialized = jar.document_cookie_string(url, 1746749800000);
  for (const auto& cookie : script::parse_cookie_string(serialized)) {
    EXPECT_EQ(cookie.name.find(';'), std::string::npos);
  }
  EXPECT_LE(jar.size(), cookies::CookieJar::kMaxCookies);
}

TEST(FuzzTest, QueryParserRoundTripsDecodedPairs) {
  script::Rng rng(0x0E52);
  for (int i = 0; i < 3000; ++i) {
    const auto input = random_structured(rng, 120);
    const auto params = net::parse_query(input);
    // Rebuilding and re-parsing yields the same decoded pairs.
    const auto rebuilt = net::parse_query(net::build_query(params));
    EXPECT_EQ(rebuilt, params) << input;
  }
}

TEST(FuzzTest, CookieDateParserNeverCrashes) {
  script::Rng rng(0xDA7E);
  for (int i = 0; i < 4000; ++i) {
    const auto input = i % 2 == 0 ? random_bytes(rng, 64)
                                  : random_structured(rng, 64);
    const auto t = net::parse_cookie_date(input);
    if (t) {
      // Accepted dates format and re-parse to the same instant.
      EXPECT_EQ(net::parse_cookie_date(net::format_http_date(*t)), *t)
          << input;
    }
  }
}

// ---- report::Json parser -------------------------------------------------
// The parser reads checkpoint files off disk on resume — a truncated or
// corrupted checkpoint must degrade to "cannot parse", never crash or hang.

TEST(FuzzTest, JsonParserNeverCrashesAndRoundTripsWhenAccepted) {
  script::Rng rng(0x150D);
  for (int i = 0; i < 4000; ++i) {
    const auto input = i % 2 == 0 ? random_bytes(rng, 200)
                                  : random_structured(rng, 200);
    const auto parsed = report::Json::parse(input);
    if (!parsed) continue;
    // Accepted documents must survive dump -> parse -> dump unchanged.
    const auto again = report::Json::parse(parsed->dump());
    ASSERT_TRUE(again.has_value()) << input;
    EXPECT_EQ(again->dump(), parsed->dump()) << input;
  }
}

TEST(FuzzTest, JsonParserEnforcesItsDepthLimitWithoutOverflow) {
  const auto nested = [](int depth) {
    std::string text(static_cast<std::size_t>(depth), '[');
    text += "1";
    text.append(static_cast<std::size_t>(depth), ']');
    return text;
  };
  // Find the deepest accepted nesting; it must sit at the documented limit
  // (kMaxDepth = 64), not at the stack's mercy.
  int deepest = 0;
  for (int depth = 1; depth <= 80; ++depth) {
    if (report::Json::parse(nested(depth)).has_value()) deepest = depth;
  }
  EXPECT_GE(deepest, 60);
  EXPECT_LE(deepest, 66);
  EXPECT_FALSE(report::Json::parse(nested(deepest + 1)).has_value());
  // Pathological depth parses to rejection, not a stack overflow. Mixed
  // object/array nesting hits the same guard.
  EXPECT_FALSE(report::Json::parse(nested(100000)).has_value());
  std::string mixed;
  for (int i = 0; i < 200; ++i) mixed += R"({"k":[)";
  EXPECT_FALSE(report::Json::parse(mixed).has_value());
}

TEST(FuzzTest, JsonParserRejectsEveryTruncationOfAValidDocument) {
  auto doc = report::Json::object();
  doc["name"] = "checkpoint";
  doc["next_index"] = 150;
  doc["rate"] = 0.254;
  doc["ok"] = true;
  doc["none"] = nullptr;
  auto ranks = report::Json::array();
  for (int i = 0; i < 10; ++i) ranks.push_back(i * 3);
  doc["ranks"] = std::move(ranks);
  auto inner = report::Json::object();
  inner["esc"] = "quote\" slash\\ tab\t newline\n";
  doc["health"] = std::move(inner);

  const std::string text = doc.dump(2);
  ASSERT_TRUE(report::Json::parse(text).has_value());
  // A document truncated anywhere strictly inside is never valid (the
  // top-level value is an object, so no proper prefix closes it) — and
  // never crashes the parser.
  for (std::size_t len = 0; len < text.size(); ++len) {
    EXPECT_FALSE(report::Json::parse(text.substr(0, len)).has_value())
        << "prefix length " << len;
  }
  // Trailing garbage after a complete document is also an error.
  EXPECT_FALSE(report::Json::parse(text + "x").has_value());
}

TEST(FuzzTest, JsonParserToleratesMalformedStringEscapes) {
  script::Rng rng(0xE5CA);
  static constexpr const char* kBroken[] = {
      R"("\)",        // backslash at end of input
      R"("\q")",      // unknown escape
      R"("\u12")",    // truncated unicode escape
      R"("\u12zz")",  // non-hex unicode escape
      R"("\u")",      // bare \u
      "\"abc",        // unterminated string
      "\"a\nb\"",     // raw control character inside a string
  };
  for (const char* text : kBroken) {
    const auto parsed = report::Json::parse(text);
    if (parsed) {
      // If the parser chooses to accept it, the result must round-trip.
      const auto again = report::Json::parse(parsed->dump());
      ASSERT_TRUE(again.has_value()) << text;
      EXPECT_EQ(again->dump(), parsed->dump()) << text;
    }
  }
  // Random escape soup inside string literals.
  for (int i = 0; i < 2000; ++i) {
    std::string text = "\"";
    const std::size_t len = rng.below(30);
    for (std::size_t j = 0; j < len; ++j) {
      text += (rng.below(3) == 0) ? '\\'
                                  : static_cast<char>(rng.below(256));
    }
    text += "\"";
    const auto parsed = report::Json::parse(text);
    if (parsed) {
      const auto again = report::Json::parse(parsed->dump());
      ASSERT_TRUE(again.has_value()) << text;
    }
  }
}

// ---- store::Reader -------------------------------------------------------
// The archive reader consumes files that may have been truncated by a
// crash, bit-rotted on disk, or stitched together by a buggy sync tool.
// Whatever the bytes, it must return a fault::ArchiveFault taxonomy code —
// never crash, hang, or fabricate records with out-of-range enums.

/// A small but structurally rich archive: several sites, shared strings,
/// every record channel populated.
std::string seed_archive(script::Rng& rng) {
  auto sink = std::make_unique<store::BufferSink>();
  store::BufferSink* out = sink.get();
  store::WriterOptions writer_options;
  writer_options.corpus_seed = 0xC0FFEEu;
  writer_options.fault_seed = 0xFA17u;
  store::Writer writer(std::move(sink), writer_options);
  for (int rank = 0; rank < 8; ++rank) {
    instrument::VisitLog log;
    log.site_host = "www.site" + std::to_string(rank) + ".com";
    log.site = "site" + std::to_string(rank) + ".com";
    log.rank = rank;
    log.has_cookie_logs = true;
    log.has_request_logs = rank % 2 == 0;
    log.attempts = 1 + static_cast<int>(rng.below(3));
    const int records = 1 + static_cast<int>(rng.below(5));
    for (int i = 0; i < records; ++i) {
      instrument::ScriptCookieSetRecord set;
      set.cookie_name = "c" + std::to_string(i);
      set.value = "v" + std::to_string(rng.below(1000));
      set.setter_url = "https://cdn.tracker.net/t.js";
      set.setter_domain = "tracker.net";
      set.time = static_cast<TimeMillis>(rng.below(10000));
      log.script_sets.push_back(set);
      instrument::RequestRecord req;
      req.url = "https://px.tracker.net/p?x=" + std::to_string(i);
      req.host = "px.tracker.net";
      req.dest_domain = "tracker.net";
      req.time = set.time + 1;
      log.requests.push_back(req);
    }
    writer.add(log);
  }
  EXPECT_TRUE(writer.finish());
  return out->bytes();
}

/// Shared oracle: whatever `bytes` holds, opening and fully decoding it
/// must either succeed or stop with a valid taxonomy code. Returns true
/// when the archive was accepted end-to-end.
bool open_and_drain(const std::string& bytes) {
  store::Error error;
  const auto reader = store::Reader::from_buffer(bytes, &error);
  if (!reader) {
    EXPECT_NE(error.code, fault::ArchiveFault::kNone);
    EXPECT_LT(static_cast<int>(error.code), fault::kArchiveFaultCount);
    return false;
  }
  store::Error decode_error;
  const bool drained = reader->for_each(
      [](instrument::VisitLog&& log) {
        // Decoded records carry in-range enums or the block was rejected.
        for (const auto& record : log.script_sets) {
          EXPECT_LT(static_cast<int>(record.api), 3);
          EXPECT_LT(static_cast<int>(record.category), 11);
        }
      },
      &decode_error);
  if (!drained) {
    EXPECT_NE(decode_error.code, fault::ArchiveFault::kNone);
    EXPECT_LT(static_cast<int>(decode_error.code),
              fault::kArchiveFaultCount);
  }
  return drained;
}

TEST(FuzzTest, CgarReaderSurvivesBitFlips) {
  script::Rng rng(0xC6A2);
  const std::string archive = seed_archive(rng);
  ASSERT_TRUE(open_and_drain(archive));
  for (int i = 0; i < 4000; ++i) {
    std::string bad = archive;
    const int flips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.below(bad.size());
      bad[pos] = static_cast<char>(bad[pos] ^ (1u << rng.below(8)));
    }
    open_and_drain(bad);  // must not crash; rejections are taxonomy'd
  }
}

TEST(FuzzTest, CgarReaderRejectsEveryTruncationAndExtension) {
  script::Rng rng(0xC6A3);
  const std::string archive = seed_archive(rng);
  for (int i = 0; i < 3000; ++i) {
    const std::size_t len = rng.below(archive.size());
    EXPECT_FALSE(open_and_drain(archive.substr(0, len))) << "len=" << len;
  }
  // Bytes appended after the trailer shift the trailer out of position.
  EXPECT_FALSE(open_and_drain(archive + "tail"));
}

TEST(FuzzTest, CgarReaderSurvivesSplicedAndDuplicatedBlocks) {
  script::Rng rng(0xC6A4);
  const std::string archive = seed_archive(rng);
  for (int i = 0; i < 3000; ++i) {
    std::string bad = archive;
    const std::size_t from = rng.below(bad.size());
    const std::size_t span = 1 + rng.below(bad.size() - from);
    const std::string slice = bad.substr(from, span);
    if (rng.below(2) == 0) {
      bad.insert(rng.below(bad.size() + 1), slice);  // duplicate a range
    } else {
      bad.erase(from, span);  // drop a range
    }
    // A splice that leaves the byte count and every checksum and index
    // offset consistent is only the identity; anything else is rejected.
    if (bad != archive) {
      EXPECT_FALSE(open_and_drain(bad)) << "from=" << from << " span=" << span
                                        << " len=" << bad.size();
    }
  }
}

TEST(FuzzTest, CgarReaderToleratesArbitraryGarbage) {
  script::Rng rng(0xC6A5);
  for (int i = 0; i < 4000; ++i) {
    open_and_drain(i % 2 == 0 ? random_bytes(rng, 300)
                              : random_structured(rng, 300));
  }
  // Near-miss headers: correct magic, garbage after.
  for (int i = 0; i < 1000; ++i) {
    std::string bytes(store::kHeaderMagic);
    bytes += random_bytes(rng, 120);
    EXPECT_FALSE(open_and_drain(bytes));
  }
}

TEST(FuzzTest, CgarPayloadDecoderNeverCrashesOnMutatedPayloads) {
  script::Rng rng(0xC6A6);
  instrument::VisitLog log;
  log.site_host = "www.fuzz.example";
  log.site = "fuzz.example";
  log.rank = 3;
  instrument::ScriptCookieSetRecord set;
  set.cookie_name = "id";
  set.value = "123";
  set.setter_url = "https://t.example/x.js";
  set.setter_domain = "t.example";
  log.script_sets.push_back(set);
  const std::string payload = store::encode_site_payload(log);

  for (int i = 0; i < 4000; ++i) {
    std::string bad = payload;
    const int edits = 1 + static_cast<int>(rng.below(4));
    for (int e = 0; e < edits; ++e) {
      if (bad.empty()) bad.push_back('\0');
      switch (rng.below(3)) {
        case 0:  // flip
          bad[rng.below(bad.size())] ^= static_cast<char>(1u << rng.below(8));
          break;
        case 1:  // truncate
          bad.resize(rng.below(bad.size() + 1));
          break;
        default:  // extend with junk
          bad += random_bytes(rng, 16);
          break;
      }
    }
    if (bad.empty()) bad.push_back('\0');
    store::Error error;
    const auto decoded = store::decode_site_payload(bad, &error);
    if (!decoded.has_value()) {
      EXPECT_EQ(error.code, fault::ArchiveFault::kCorruptBlock);
    }
  }
}

TEST(FuzzTest, CheckpointJsonSurvivesTornTailsAndGarbage) {
  // A checkpoint file interrupted mid-write (torn tail) or trailed by
  // garbage must parse to nullopt or to a structurally sound checkpoint —
  // never crash, never yield negative counts the resume path would trip on.
  crawler::CrawlCheckpoint checkpoint;
  checkpoint.next_index = 137;
  checkpoint.target_count = 500;
  checkpoint.corpus_seed = 0xC0FFEE;
  checkpoint.fault_seed = 0xFA177;
  checkpoint.health.sites_attempted = 137;
  checkpoint.health.sites_retained = 101;
  checkpoint.health.sites_excluded = 36;
  checkpoint.health.retained_ranks = {1, 2, 3, 5, 8, 13};
  checkpoint.threads = 4;
  checkpoint.shard_completed = {3, 1, 0, 2};
  checkpoint.archive_sites = 137;
  checkpoint.archive_bytes = 123456;
  const std::string full = checkpoint.to_json_string();

  const auto round_trip = crawler::CrawlCheckpoint::from_json_string(full);
  ASSERT_TRUE(round_trip.has_value());
  EXPECT_EQ(round_trip->next_index, checkpoint.next_index);
  EXPECT_EQ(round_trip->archive_sites, checkpoint.archive_sites);
  EXPECT_EQ(round_trip->archive_bytes, checkpoint.archive_bytes);

  script::Rng rng(0x70A2);
  auto check = [](const std::string& text) {
    const auto parsed = crawler::CrawlCheckpoint::from_json_string(text);
    if (!parsed.has_value()) return;
    EXPECT_GE(parsed->next_index, 0);
    EXPECT_GE(parsed->target_count, 0);
    EXPECT_GE(parsed->health.sites_attempted, 0);
    EXPECT_GE(parsed->archive_sites, -1);
  };
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    check(full.substr(0, cut));  // every torn tail
  }
  for (int i = 0; i < 500; ++i) {
    check(full + random_bytes(rng, 40));  // garbage appended
    std::string mutated = full;
    mutated[rng.below(mutated.size())] =
        static_cast<char>(rng.below(256));  // one corrupted byte
    check(mutated);
  }
}

TEST(FuzzTest, IdentifierExtractionSegmentsAreAlnum) {
  script::Rng rng(0x1D5E);
  for (int i = 0; i < 3000; ++i) {
    const auto value = random_bytes(rng, 100);
    for (const auto& segment : script::extract_identifier_segments(value)) {
      EXPECT_GE(segment.size(), 8u);
      for (const char c : segment) {
        EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)));
      }
    }
  }
}

}  // namespace
}  // namespace cg
