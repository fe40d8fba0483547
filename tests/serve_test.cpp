// Serving-tier tests: zipfian workload determinism and shape, answer
// cache eviction/stats semantics, the query line protocol, and
// Server answers — aggregate == batch fold, per-site == random access,
// and N-thread == 1-thread byte-identity.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/archive.h"
#include "corpus/corpus.h"
#include "crawler/crawler.h"
#include "report/report.h"
#include "serve/cache.h"
#include "serve/query.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "store/chain.h"
#include "store/delta_codec.h"
#include "store/reader.h"
#include "store/writer.h"

namespace cg::serve {
namespace {

// ---- workload -------------------------------------------------------------

TEST(ZipfSamplerTest, ProbabilitiesSumToOneAndDecrease) {
  const ZipfSampler sampler(100, 0.99);
  double sum = 0;
  for (int k = 0; k < 100; ++k) sum += sampler.probability(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (int k = 1; k < 100; ++k) {
    EXPECT_LT(sampler.probability(k), sampler.probability(k - 1));
  }
  EXPECT_EQ(sampler.probability(-1), 0.0);
  EXPECT_EQ(sampler.probability(100), 0.0);
}

TEST(ZipfSamplerTest, EmpiricalHeadMatchesTheory) {
  const ZipfSampler sampler(1000, 0.99);
  script::Rng rng(42);
  std::vector<int> counts(1000, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.sample(rng)];
  // Head ranks get enough mass for a tight relative check.
  for (int k = 0; k < 5; ++k) {
    const double expected = sampler.probability(k) * kDraws;
    EXPECT_NEAR(counts[k], expected, 0.08 * expected) << "rank " << k;
  }
  // Monotone-ish head: rank 0 strictly dominates rank 10 and rank 100.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[100]);
}

TEST(WorkloadTest, SameSeedSameStream) {
  WorkloadSpec spec;
  spec.site_count = 500;
  WorkloadGenerator a(spec);
  WorkloadGenerator b(spec);
  const auto qa = a.generate(2000);
  const auto qb = b.generate(2000);
  ASSERT_EQ(qa.size(), qb.size());
  for (std::size_t i = 0; i < qa.size(); ++i) {
    EXPECT_EQ(to_text(qa[i]), to_text(qb[i])) << "query " << i;
  }
}

TEST(WorkloadTest, GenerateIsPureAndRanksInBounds) {
  WorkloadSpec spec;
  spec.site_count = 50;
  WorkloadGenerator gen(spec);
  const auto first = gen.generate(500);
  const auto second = gen.generate(500);  // restarts from the seed
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(to_text(first[i]), to_text(second[i]));
  }
  int sites = 0;
  for (const Query& q : first) {
    if (q.kind == QueryKind::kSite) {
      ++sites;
      EXPECT_GE(q.rank, 1);
      EXPECT_LE(q.rank, 50);
    }
  }
  // weight_site = 90/100 by default; the stream must be site-dominated.
  EXPECT_GT(sites, 350);
}

TEST(WorkloadTest, DifferentSeedsDiverge) {
  WorkloadSpec a;
  a.site_count = 500;
  WorkloadSpec b = a;
  b.seed = a.seed + 1;
  const auto qa = WorkloadGenerator(a).generate(200);
  const auto qb = WorkloadGenerator(b).generate(200);
  int differing = 0;
  for (std::size_t i = 0; i < qa.size(); ++i) {
    if (to_text(qa[i]) != to_text(qb[i])) ++differing;
  }
  EXPECT_GT(differing, 0);
}

// ---- query protocol -------------------------------------------------------

TEST(QueryParseTest, RoundTripsEveryKind) {
  const char* lines[] = {"site 17",       "table1",       "totals",
                         "top-exfiltrated 5", "top-domains 3", "entity Google",
                         "stats"};
  for (const char* line : lines) {
    const auto q = parse_query(line);
    ASSERT_TRUE(q.has_value()) << line;
    EXPECT_EQ(to_text(*q), line);
    // to_text must parse back to the same query.
    const auto again = parse_query(to_text(*q));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(to_text(*again), line);
  }
}

TEST(QueryParseTest, WavesQueriesRoundTrip) {
  const auto bare = parse_query("waves");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->kind, QueryKind::kWaves);
  EXPECT_TRUE(bare->domain.empty());
  EXPECT_EQ(to_text(*bare), "waves");

  const auto filtered = parse_query("waves tracker.net");
  ASSERT_TRUE(filtered.has_value());
  EXPECT_EQ(filtered->kind, QueryKind::kWaves);
  EXPECT_EQ(filtered->domain, "tracker.net");
  EXPECT_EQ(to_text(*filtered), "waves tracker.net");

  EXPECT_FALSE(parse_query("waves a b").has_value());
}

TEST(QueryParseTest, DefaultsAndRejects) {
  EXPECT_EQ(parse_query("top-exfiltrated")->top_n, 10);
  EXPECT_EQ(parse_query("top-domains")->top_n, 10);
  EXPECT_FALSE(parse_query("").has_value());
  EXPECT_FALSE(parse_query("site").has_value());
  EXPECT_FALSE(parse_query("site x").has_value());
  EXPECT_FALSE(parse_query("site 17 trailing").has_value());
  EXPECT_FALSE(parse_query("table1 extra").has_value());
  EXPECT_FALSE(parse_query("entity").has_value());
  EXPECT_FALSE(parse_query("unknown 1").has_value());
}

// ---- cache ----------------------------------------------------------------

BlockCache::Answer answer_for(int rank) {
  return std::make_shared<const std::string>(
      "{\"kind\":\"site\",\"rank\":" + std::to_string(rank) + "}");
}

TEST(BlockCacheTest, HitMissAndCounters) {
  CacheConfig config;
  config.max_entries = 4;
  config.shards = 1;
  BlockCache cache(config);
  EXPECT_EQ(cache.get(1), nullptr);
  cache.put(1, answer_for(1));
  const auto hit = cache.get(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, *answer_for(1));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsed) {
  CacheConfig config;
  config.max_entries = 2;
  config.shards = 1;
  BlockCache cache(config);
  cache.put(1, answer_for(1));
  cache.put(2, answer_for(2));
  ASSERT_NE(cache.get(1), nullptr);  // refresh 1; 2 becomes LRU
  cache.put(3, answer_for(3));       // evicts 2
  EXPECT_EQ(cache.get(2), nullptr);
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST(BlockCacheTest, DuplicatePutKeepsIncumbent) {
  CacheConfig config;
  config.shards = 1;
  BlockCache cache(config);
  const auto first = answer_for(1);
  cache.put(1, first);
  cache.put(1, answer_for(1));  // concurrent render of the same answer
  EXPECT_EQ(cache.get(1).get(), first.get());
  EXPECT_EQ(cache.stats().insertions, 1);
}

TEST(BlockCacheTest, ZeroCapacityDisablesCaching) {
  CacheConfig config;
  config.max_entries = 0;
  BlockCache cache(config);
  cache.put(1, answer_for(1));
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
}

// ---- server ---------------------------------------------------------------

corpus::CorpusParams small_params(int sites) {
  corpus::CorpusParams params;
  params.site_count = sites;
  return params;
}

/// Crawls `corpus` keeping the logs, so later waves can be derived by
/// mutating them (serve_test builds its chains from store primitives — the
/// evolution engine itself is covered in evolve_test).
std::vector<instrument::VisitLog> crawl_logs(const corpus::Corpus& corpus) {
  crawler::Crawler crawler(corpus);
  std::vector<instrument::VisitLog> logs;
  crawler.crawl(corpus.size(), crawler::CrawlOptions{},
                [&](instrument::VisitLog&& log) {
                  logs.push_back(std::move(log));
                });
  return logs;
}

/// The provenance `cgsim pack` records for a default crawl of `corpus`.
store::WriterOptions wave0_options(const corpus::Corpus& corpus) {
  crawler::Crawler crawler(corpus);
  store::WriterOptions options;
  options.corpus_seed = corpus.params().seed;
  const fault::FaultPlan plan = crawler.plan_for(crawler::CrawlOptions{});
  options.fault_seed = plan.enabled() ? plan.params().seed : 0;
  return options;
}

/// Packs `logs` into an in-memory full CGAR image.
std::string pack_logs(const std::vector<instrument::VisitLog>& logs,
                      const store::WriterOptions& options) {
  auto sink = std::make_unique<store::BufferSink>();
  store::BufferSink* out = sink.get();
  store::Writer writer(std::move(sink), options);
  for (const auto& log : logs) writer.add(log);
  EXPECT_TRUE(writer.finish());
  return out->bytes();
}

/// Crawls `corpus` and packs it into an in-memory CGAR image.
std::string packed_archive(const corpus::Corpus& corpus) {
  return pack_logs(crawl_logs(corpus), wave0_options(corpus));
}

std::unique_ptr<Server> server_over(const std::string& archive,
                                    ServerConfig config = {}) {
  store::Error error;
  auto reader = store::Reader::from_buffer(archive, &error);
  EXPECT_TRUE(reader.has_value()) << error.to_string();
  std::vector<store::Reader> readers;
  readers.push_back(std::move(*reader));
  auto server = Server::from_readers(std::move(readers), config, &error);
  EXPECT_NE(server, nullptr) << error.to_string();
  return server;
}

TEST(ServerTest, AggregateMatchesBatchAnalyzer) {
  corpus::Corpus corpus(small_params(60));
  const std::string archive = packed_archive(corpus);
  const auto server = server_over(archive);

  store::Error error;
  auto reader = store::Reader::from_buffer(archive, &error);
  ASSERT_TRUE(reader.has_value());
  analysis::Analyzer batch(corpus.entities());
  ASSERT_TRUE(analysis::analyze_archive(*reader, batch, &error));

  analysis::Analyzer from_serve(corpus.entities());
  from_serve.apply(analysis::SiteSummary(server->aggregate()));
  EXPECT_EQ(report::summary_to_json(batch, 10).dump(),
            report::summary_to_json(from_serve, 10).dump());
}

/// The section `key` of `summary` with the members a query adds around it.
report::Json with_kind(const report::Json& summary, const char* key,
                       const char* kind) {
  report::Json answer = *summary.find(key);
  answer["kind"] = kind;
  return answer;
}

/// The top-N answer over a ranking section: its first n rows.
report::Json top_n_answer(const report::Json& rows, const char* kind, int n) {
  report::Json answer = report::Json::object();
  answer["kind"] = kind;
  answer["n"] = n;
  report::Json prefix = report::Json::array();
  for (std::size_t i = 0; i < rows.size() && i < static_cast<std::size_t>(n);
       ++i) {
    prefix.push_back(rows.at(i));
  }
  answer["rows"] = std::move(prefix);
  return answer;
}

TEST(ServerTest, ServedPaperTablesAreTheBatchSections) {
  // serve == batch for every served paper table: each answer is the
  // matching section of summary_to_json over analyze_archive of the same
  // archive, byte for byte, plus its "kind" (and "n" for top-N slices).
  corpus::Corpus corpus(small_params(60));
  const std::string archive = packed_archive(corpus);
  const auto server = server_over(archive);
  store::Error error;
  auto reader = store::Reader::from_buffer(archive, &error);
  ASSERT_TRUE(reader.has_value());
  analysis::Analyzer batch(corpus.entities());
  ASSERT_TRUE(analysis::analyze_archive(*reader, batch, &error));
  const report::Json top10 = report::summary_to_json(batch, 10);
  const report::Json all = report::summary_to_json(batch, 100000);

  const auto served = [&](const std::string& line) {
    return server->handle_text(*parse_query(line));
  };
  EXPECT_EQ(served("table1"), with_kind(top10, "table1", "table1").dump());
  EXPECT_EQ(served("totals"), with_kind(top10, "totals", "totals").dump());
  const report::Json& exfiltrated = *top10.find("top_exfiltrated");
  const report::Json& domains = *top10.find("top_exfiltrator_domains");
  ASSERT_GE(exfiltrated.size(), 5u);
  ASSERT_GE(domains.size(), 3u);
  for (const int n : {1, 5, 10}) {
    const std::string text = std::to_string(n);
    EXPECT_EQ(served("top-exfiltrated " + text),
              top_n_answer(exfiltrated, "top-exfiltrated", n).dump());
    EXPECT_EQ(served("top-domains " + text),
              top_n_answer(domains, "top-domains", n).dump());
  }
  // Past the end of the ranking, the answer is the whole ranking.
  EXPECT_EQ(served("top-exfiltrated 100000"),
            top_n_answer(*all.find("top_exfiltrated"), "top-exfiltrated",
                         100000)
                .dump());
  EXPECT_EQ(served("top-domains 100000"),
            top_n_answer(*all.find("top_exfiltrator_domains"), "top-domains",
                         100000)
                .dump());

  // The bare waves trend over one archive: one row, the totals section.
  report::Json row = *top10.find("totals");
  row["wave"] = 0;
  report::Json rows = report::Json::array();
  rows.push_back(std::move(row));
  report::Json waves = report::Json::object();
  waves["kind"] = "waves";
  waves["waves"] = 1;
  waves["rows"] = std::move(rows);
  EXPECT_EQ(served("waves"), waves.dump());
}

TEST(ServerTest, SiteAnswersAreStableAndCacheIsTransparent) {
  corpus::Corpus corpus(small_params(40));
  const auto server = server_over(packed_archive(corpus));

  ServerConfig no_cache;
  no_cache.cache.max_entries = 0;
  const auto uncached = server_over(packed_archive(corpus), no_cache);

  for (int rank = 1; rank <= 40; ++rank) {
    Query q;
    q.kind = QueryKind::kSite;
    q.rank = rank;
    const std::string cold = server->handle_text(q);
    const std::string warm = server->handle_text(q);  // second read: hit
    EXPECT_EQ(cold, warm) << "rank " << rank;
    EXPECT_EQ(cold, uncached->handle_text(q)) << "rank " << rank;
  }
  const auto stats = server->cache().stats();
  EXPECT_EQ(stats.misses, 40);
  EXPECT_EQ(stats.hits, 40);
  EXPECT_EQ(uncached->cache().stats().insertions, 0);
}

TEST(ServerTest, UnknownRankIsAnErrorAnswerNotACrash) {
  // A rank outside the served wave is the error a live server can return
  // (from_readers refuses a corrupt block at load). It is answered the
  // same way every time and never touches the answer cache.
  corpus::Corpus corpus(small_params(10));
  const auto server = server_over(packed_archive(corpus));
  Query q;
  q.kind = QueryKind::kSite;
  q.rank = 9999;
  const auto answer = server->handle(q);
  ASSERT_NE(answer.find("error"), nullptr);
  EXPECT_EQ(server->handle_text(q), answer.dump());
  const auto cache = server->cache().stats();
  EXPECT_EQ(cache.misses, 0);
  EXPECT_EQ(cache.insertions, 0);
  const auto stats = server->stats_json();
  EXPECT_EQ(stats.find("queries")->find("errors")->as_int(), 2);
}

TEST(ServerTest, CacheHitsCountAsSiteQueries) {
  corpus::Corpus corpus(small_params(10));
  const auto server = server_over(packed_archive(corpus));
  Query q;
  q.kind = QueryKind::kSite;
  q.rank = 1;
  const std::string cold = server->handle_text(q);
  EXPECT_EQ(cold, server->handle_text(q));
  EXPECT_EQ(server->cache().stats().hits, 1);
  const auto stats = server->stats_json();
  EXPECT_EQ(stats.find("queries")->find("site")->as_int(), 2);
  EXPECT_EQ(stats.find("queries")->find("errors")->as_int(), 0);
}

TEST(ServerTest, EntityQueriesDistinguishKnownFromUnknown) {
  corpus::Corpus corpus(small_params(60));
  const auto server = server_over(packed_archive(corpus));
  Query q;
  q.kind = QueryKind::kEntity;
  q.entity = "Google";
  EXPECT_TRUE(server->handle(q).find("known")->as_bool());
  q.entity = "NoSuchEntity";
  const auto answer = server->handle(q);
  EXPECT_FALSE(answer.find("known")->as_bool());
  EXPECT_EQ(answer.find("exfiltrated_pairs")->as_int(), 0);
}

TEST(ServerTest, ConcurrentReadersMatchSequentialAnswers) {
  corpus::Corpus corpus(small_params(50));
  ServerConfig config;
  config.cache.max_entries = 16;  // small: force concurrent evictions
  config.cache.shards = 4;
  const auto server = server_over(packed_archive(corpus), config);

  WorkloadSpec spec;
  spec.site_count = 50;
  const auto queries = WorkloadGenerator(spec).generate(600);

  std::vector<std::string> sequential(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].kind == QueryKind::kStats) continue;
    sequential[i] = server->handle_text(queries[i]);
  }

  constexpr int kThreads = 8;
  std::vector<std::string> concurrent(queries.size());
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < queries.size();
           i += kThreads) {
        if (queries[i].kind == QueryKind::kStats) continue;
        concurrent[i] = server->handle_text(queries[i]);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(sequential[i], concurrent[i]) << "query " << i;
  }
}

// ---- wave chains ----------------------------------------------------------

/// WriterOptions for the delta wave after `base`, with the BaseProvenance
/// `cgsim pack --base` records.
store::WriterOptions delta_options(const store::Reader& base,
                                   store::WriterOptions options) {
  options.kind = store::ArchiveKind::kDelta;
  options.wave = base.wave() + 1;
  options.base.corpus_seed = base.corpus_seed();
  options.base.fault_seed = base.fault_seed();
  options.base.evolution_seed = base.evolution_seed();
  options.base.policy = base.policy();
  options.base.wave = base.wave();
  options.base.site_count =
      static_cast<std::uint32_t>(base.total_site_count());
  options.base.footer_crc = base.footer_crc();
  return options;
}

/// Packs `logs` as a delta against the full archive `base` the way the
/// crawler does: materialize each rank through a one-link chain, then
/// make_wave_block.
std::string pack_delta(const store::Reader& base,
                       const std::vector<instrument::VisitLog>& logs,
                       const store::WriterOptions& options) {
  store::Error error;
  const auto chain = store::WaveChain::link({&base}, &error);
  EXPECT_TRUE(chain.has_value()) << error.to_string();
  if (!chain) return {};
  auto sink = std::make_unique<store::BufferSink>();
  store::BufferSink* out = sink.get();
  store::Writer writer(std::move(sink), options);
  for (const auto& log : logs) {
    const auto base_payload = chain->payload_at(log.rank, 0, &error);
    EXPECT_TRUE(error.ok()) << error.to_string();
    std::optional<std::string_view> base_view;
    if (base_payload) base_view = *base_payload;
    store::WaveBlock block = store::make_wave_block(base_view, log);
    if (block.kind == store::WaveBlock::Kind::kInherited) {
      EXPECT_TRUE(writer.add_inherited(log.rank));
    } else {
      EXPECT_TRUE(writer.append_delta_block(log.rank, std::move(block.block)));
    }
  }
  EXPECT_TRUE(writer.finish(&error)) << error.to_string();
  return out->bytes();
}

TEST(ServerTest, RejectsArchiveListsThatAreNotOneChain) {
  // cgserve reads an archive list exactly as `cgsim query` does: one
  // base+delta chain. Anything else would double-count or mix crawls.
  corpus::Corpus corpus(small_params(10));
  auto logs = crawl_logs(corpus);
  const store::WriterOptions base_options = wave0_options(corpus);
  const std::string w0 = pack_logs(logs, base_options);
  store::Error error;
  const auto base = store::Reader::from_buffer(w0, &error);
  ASSERT_TRUE(base.has_value()) << error.to_string();
  logs[1].requests.clear();
  const std::string w1 =
      pack_delta(*base, logs, delta_options(*base, base_options));
  // The same delta recorded under another policy than its base's.
  store::WriterOptions mixed_options = delta_options(*base, base_options);
  mixed_options.policy = store::ArchivePolicy::kCookieGuard;
  const std::string mixed = pack_delta(*base, logs, mixed_options);

  const struct {
    const char* name;
    std::vector<const std::string*> archives;
    fault::ArchiveFault expected;
  } lists[] = {
      {"two full archives", {&w0, &w0}, fault::ArchiveFault::kBaseMismatch},
      {"delta first", {&w1, &w0}, fault::ArchiveFault::kDeltaUnresolved},
      {"policy-mixed", {&w0, &mixed}, fault::ArchiveFault::kBaseMismatch},
  };
  for (const auto& list : lists) {
    std::vector<store::Reader> readers;
    std::vector<const store::Reader*> chain_readers;
    for (const std::string* archive : list.archives) {
      auto reader = store::Reader::from_buffer(*archive, &error);
      ASSERT_TRUE(reader.has_value()) << list.name << error.to_string();
      readers.push_back(std::move(*reader));
    }
    for (const store::Reader& reader : readers) {
      chain_readers.push_back(&reader);
    }
    // What `cgsim query` reports for this list...
    store::Error link_error;
    EXPECT_FALSE(store::WaveChain::link(chain_readers, &link_error))
        << list.name;
    EXPECT_EQ(link_error.code, list.expected) << list.name;
    // ...is what the server refuses to come up with.
    store::Error serve_error;
    EXPECT_EQ(Server::from_readers(std::move(readers), {}, &serve_error),
              nullptr)
        << list.name;
    EXPECT_EQ(serve_error.code, link_error.code) << list.name;
  }
}

TEST(ServerTest, WaveChainServesTrendsAndNewestAggregate) {
  corpus::Corpus corpus(small_params(20));
  const auto logs = crawl_logs(corpus);
  ASSERT_EQ(logs.size(), 20u);

  // Wave 0: a full archive of the crawl.
  const store::WriterOptions base_options = wave0_options(corpus);
  const std::string w0 = pack_logs(logs, base_options);
  store::Error error;
  auto base = store::Reader::from_buffer(w0, &error);
  ASSERT_TRUE(base.has_value()) << error.to_string();

  // Wave 1: one site's requests disappear; everything else inherits.
  auto wave1 = logs;
  wave1[1].requests.clear();
  const std::string w1 =
      pack_delta(*base, wave1, delta_options(*base, base_options));

  // Base then delta: the list is one two-wave chain.
  auto delta = store::Reader::from_buffer(w1, &error);
  ASSERT_TRUE(delta.has_value()) << error.to_string();
  std::vector<store::Reader> readers;
  readers.push_back(std::move(*base));
  readers.push_back(std::move(*delta));
  const auto server = Server::from_readers(std::move(readers), {}, &error);
  ASSERT_NE(server, nullptr) << error.to_string();
  EXPECT_EQ(server->archive_count(), 2);
  EXPECT_EQ(server->site_count(), 20);

  // The trend table has one row per wave, in wave order.
  Query waves_query;
  waves_query.kind = QueryKind::kWaves;
  const auto trend = server->handle(waves_query);
  EXPECT_EQ(trend.find("waves")->as_int(), 2);
  const report::Json* rows = trend.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ(rows->at(0).find("wave")->as_int(), 0);
  EXPECT_EQ(rows->at(1).find("wave")->as_int(), 1);

  // Per-domain trends answer for every wave too, known or not.
  waves_query.domain = "no-such-domain.example";
  const auto filtered = server->handle(waves_query);
  ASSERT_EQ(filtered.find("rows")->size(), 2u);
  EXPECT_FALSE(filtered.find("rows")->at(0).find("known")->as_bool(true));

  // The aggregate serves the NEWEST wave: identical to a server over an
  // independently packed full archive of the wave-1 logs, and per-site
  // queries materialize rank 2 through the chain.
  store::WriterOptions full1_options = base_options;
  full1_options.wave = 1;
  const auto reference = server_over(pack_logs(wave1, full1_options));
  for (const auto kind : {QueryKind::kTable1, QueryKind::kTotals}) {
    Query q;
    q.kind = kind;
    EXPECT_EQ(server->handle_text(q), reference->handle_text(q));
  }
  Query site_query;
  site_query.kind = QueryKind::kSite;
  site_query.rank = 2;
  // Only the serving-archive index may differ from the reference answer:
  // the chain serves rank 2 from the delta (archive 1), the full pack from
  // its single archive (archive 0). Records and fold must be identical.
  const auto chain_site = server->handle(site_query);
  const auto full_site = reference->handle(site_query);
  EXPECT_EQ(chain_site.find("archive")->as_int(), 1);
  EXPECT_EQ(chain_site.find("records")->dump(),
            full_site.find("records")->dump());
  EXPECT_EQ(chain_site.find("analysis")->dump(),
            full_site.find("analysis")->dump());
  EXPECT_EQ(chain_site.find("records")->find("requests")->as_int(), 0);
}

TEST(ServerTest, HandleParsesTheServedBytes) {
  // handle() is handle_text() parsed back, so no entry point can answer
  // differently from the serving path. Stats is left out: its counters
  // move between the two calls.
  corpus::Corpus corpus(small_params(20));
  auto logs = crawl_logs(corpus);
  const store::WriterOptions base_options = wave0_options(corpus);
  const std::string w0 = pack_logs(logs, base_options);
  store::Error error;
  auto base = store::Reader::from_buffer(w0, &error);
  ASSERT_TRUE(base.has_value()) << error.to_string();
  logs[1].requests.clear();
  const std::string w1 =
      pack_delta(*base, logs, delta_options(*base, base_options));
  auto delta = store::Reader::from_buffer(w1, &error);
  ASSERT_TRUE(delta.has_value()) << error.to_string();
  std::vector<store::Reader> readers;
  readers.push_back(std::move(*base));
  readers.push_back(std::move(*delta));
  const auto server = Server::from_readers(std::move(readers), {}, &error);
  ASSERT_NE(server, nullptr) << error.to_string();

  std::vector<std::string> lines = {
      "site 2",        "site 2",        "site 999",
      "table1",        "totals",        "top-exfiltrated 5",
      "top-domains 3", "entity Google", "entity NoSuchEntity",
      "waves"};
  const auto& domains = server->aggregate().domains;
  ASSERT_FALSE(domains.empty());
  lines.push_back("waves " + domains.begin()->first);
  std::set<QueryKind> kinds;
  for (const std::string& line : lines) {
    const auto q = parse_query(line);
    ASSERT_TRUE(q.has_value()) << line;
    kinds.insert(q->kind);
    EXPECT_EQ(server->handle(*q).dump(), server->handle_text(*q)) << line;
  }
  EXPECT_EQ(kinds.count(QueryKind::kStats), 0u);
  EXPECT_EQ(kinds.size(), static_cast<std::size_t>(kQueryKindCount - 1));
}

TEST(ServerTest, WavesQueryOnOneArchiveIsAOneRowTrend) {
  corpus::Corpus corpus(small_params(10));
  const auto server = server_over(packed_archive(corpus));
  Query q;
  q.kind = QueryKind::kWaves;
  const auto trend = server->handle(q);
  ASSERT_EQ(trend.find("error"), nullptr);
  EXPECT_EQ(trend.find("waves")->as_int(), 1);
  const report::Json* rows = trend.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->size(), 1u);
  const report::Json& row = rows->at(0);
  EXPECT_EQ(row.find("wave")->as_int(-1), 0);

  // A single archive is a one-wave chain: its one row is the totals answer,
  // in the same vocabulary.
  q.kind = QueryKind::kTotals;
  const auto totals = server->handle(q);
  for (const char* key :
       {"sites_crawled", "sites_complete", "sites_with_third_party",
        "third_party_script_count", "tp_cookies_set", "fp_cookies_set",
        "unique_pairs", "exfiltrated_pairs", "cross_overwrites"}) {
    ASSERT_NE(row.find(key), nullptr) << key;
    ASSERT_NE(totals.find(key), nullptr) << key;
    EXPECT_EQ(row.find(key)->as_int(-1), totals.find(key)->as_int(-2))
        << key;
  }
  const auto stats = server->stats_json();
  EXPECT_EQ(stats.find("waves")->as_int(), 1);
  EXPECT_EQ(stats.find("queries")->find("errors")->as_int(-1), 0);
}

TEST(ServerTest, RejectsCorruptArchive) {
  corpus::Corpus corpus(small_params(10));
  std::string archive = packed_archive(corpus);
  archive[archive.size() / 2] ^= 0x40;  // flip a bit mid-blocks
  store::Error error;
  auto reader = store::Reader::from_buffer(archive, &error);
  if (!reader.has_value()) return;  // envelope already caught it
  std::vector<store::Reader> readers;
  readers.push_back(std::move(*reader));
  EXPECT_EQ(Server::from_readers(std::move(readers), {}, &error), nullptr);
  EXPECT_FALSE(error.ok());
}

}  // namespace
}  // namespace cg::serve
