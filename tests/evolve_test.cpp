// Longitudinal corpus-evolution tests: streaming/materialized byte
// identity, wave-0 identity, pure order-independent wave schedules,
// untouched sites becoming zero-byte inherited ranks, N-thread delta-pack
// determinism, and the checked-in golden wave pin.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "corpus/corpus.h"
#include "corpus/streaming_corpus.h"
#include "crawler/crawler.h"
#include "evolve/wave_corpus.h"
#include "evolve/wave_plan.h"
#include "report/report.h"
#include "store/cgar.h"
#include "store/chain.h"
#include "store/reader.h"
#include "store/record_codec.h"
#include "store/writer.h"

namespace cg {
namespace {

corpus::CorpusParams small_params(int sites) {
  corpus::CorpusParams params;
  params.site_count = sites;
  return params;
}

/// Crawls `view` and returns every site's canonical CGAR payload encoding —
/// the byte string all the identity contracts below compare.
std::vector<std::string> crawl_payloads(const corpus::CorpusView& view,
                                        int threads = 1) {
  crawler::Crawler crawler(view);
  crawler::CrawlOptions options;
  options.threads = threads;
  std::vector<std::string> payloads;
  crawler.crawl(view.size(), options, [&](instrument::VisitLog&& log) {
    payloads.push_back(store::encode_site_payload(log));
  });
  return payloads;
}

/// Crawls `view` into an in-memory archive — what `cgsim pack` does, with
/// `base` non-null packing a delta archive against the chain's newest wave.
std::string pack_wave(const corpus::CorpusView& view, int threads,
                      const store::WaveChain* base,
                      store::WriterOptions writer_options) {
  auto sink = std::make_unique<store::BufferSink>();
  store::BufferSink* out = sink.get();
  store::Writer writer(std::move(sink), writer_options);
  crawler::Crawler crawler(view);
  crawler::CrawlOptions options;
  options.threads = threads;
  options.archive = &writer;
  options.delta_base = base;
  crawler.crawl(view.size(), options, [](instrument::VisitLog&&) {});
  store::Error error;
  EXPECT_TRUE(writer.finish(&error)) << error.to_string();
  return out->bytes();
}

/// The provenance every wave of a chain shares (corpus seed, the default
/// fault schedule's seed, the evolution seed).
store::WriterOptions chain_options(const corpus::CorpusParams& params,
                                   const evolve::EvolutionParams& evolution) {
  store::WriterOptions options;
  options.corpus_seed = params.seed;
  corpus::Corpus probe(corpus::CorpusParams{});
  crawler::Crawler crawler(probe);
  const fault::FaultPlan plan = crawler.plan_for(crawler::CrawlOptions{});
  options.fault_seed = plan.enabled() ? plan.params().seed : 0;
  options.evolution_seed = evolution.seed;
  return options;
}

TEST(StreamingCorpusTest, ByteIdenticalToMaterializedCorpus) {
  // The O(shards)-memory provider must be indistinguishable from the
  // materialized one: same blueprints, same catalogs, same crawl bytes.
  const auto params = small_params(30);
  corpus::Corpus materialized(params);
  corpus::StreamingCorpus streaming(params);
  EXPECT_EQ(crawl_payloads(streaming), crawl_payloads(materialized));
}

TEST(StreamingCorpusTest, ThreadCountDoesNotChangeStreamedBytes) {
  corpus::StreamingCorpus streaming(small_params(24));
  EXPECT_EQ(crawl_payloads(streaming, 3), crawl_payloads(streaming, 1));
}

TEST(WaveCorpusTest, WaveZeroIsByteIdenticalToTheBaseCorpus) {
  const auto params = small_params(30);
  const evolve::EvolutionParams evolution;
  evolve::WaveCorpus wave0(params, evolution, 0);
  corpus::Corpus base(params);
  EXPECT_EQ(crawl_payloads(wave0), crawl_payloads(base));
}

TEST(WavePlanTest, DecisionsArePureAndOrderIndependent) {
  const evolve::EvolutionParams evolution;
  const evolve::WavePlan a(evolution, 0x5EED);
  const evolve::WavePlan b(evolution, 0x5EED);
  // Walk waves and ranks backwards through an independently constructed
  // plan: decide() must be a pure function of (params, seed, rank, wave),
  // not of access order.
  for (int wave = 3; wave >= 1; --wave) {
    for (int rank = 197; rank >= 1; rank -= 7) {
      const auto first = a.decide(rank, wave);
      const auto again = b.decide(rank, wave);
      EXPECT_EQ(first.churned, again.churned);
      EXPECT_EQ(first.vendor_swap, again.vendor_swap);
      EXPECT_EQ(first.consent_flip, again.consent_flip);
      EXPECT_EQ(first.cookie_renewal, again.cookie_renewal);
      EXPECT_EQ(first.fp_rotation, again.fp_rotation);
    }
  }
}

TEST(WavePlanTest, ChurnTracksTheConfiguredRateAndGenerationsAccumulate) {
  const evolve::EvolutionParams evolution;  // 2% churn per wave
  const evolve::WavePlan plan(evolution, 0xC0FFEE);
  int churned = 0;
  const int ranks = 4000;
  for (int rank = 1; rank <= ranks; ++rank) {
    churned += plan.decide(rank, 1).churned ? 1 : 0;
  }
  EXPECT_GT(churned, ranks / 100);      // > 1%
  EXPECT_LT(churned, 3 * ranks / 100);  // < 3%

  // generation(rank, wave) counts the churn events in [1, wave].
  for (int rank = 1; rank <= 50; ++rank) {
    int expected = 0;
    for (int wave = 1; wave <= 4; ++wave) {
      expected += plan.decide(rank, wave).churned ? 1 : 0;
      EXPECT_EQ(plan.generation(rank, wave), expected)
          << "rank " << rank << " wave " << wave;
    }
  }
}

TEST(WaveCorpusTest, UntouchedSitesInheritAndDeltaPacksAreThreadIdentical) {
  const auto params = small_params(40);
  const evolve::EvolutionParams evolution;
  const store::WriterOptions base_options = chain_options(params, evolution);

  const evolve::WaveCorpus wave0(params, evolution, 0);
  store::Error error;
  const auto base = store::Reader::from_buffer(
      pack_wave(wave0, 1, nullptr, base_options), &error);
  ASSERT_TRUE(base.has_value()) << error.to_string();
  const auto chain = store::WaveChain::link({&*base}, &error);
  ASSERT_TRUE(chain.has_value()) << error.to_string();

  const evolve::WaveCorpus wave1(params, evolution, 1);
  store::WriterOptions delta_options = base_options;
  delta_options.kind = store::ArchiveKind::kDelta;
  delta_options.wave = 1;
  delta_options.base.corpus_seed = base->corpus_seed();
  delta_options.base.fault_seed = base->fault_seed();
  delta_options.base.evolution_seed = base->evolution_seed();
  delta_options.base.policy = base->policy();
  delta_options.base.wave = base->wave();
  delta_options.base.site_count =
      static_cast<std::uint32_t>(base->total_site_count());
  delta_options.base.footer_crc = base->footer_crc();

  // The acceptance contract: a delta archive packed at N threads is
  // byte-identical to the 1-thread pack.
  const std::string one = pack_wave(wave1, 1, &*chain, delta_options);
  EXPECT_EQ(pack_wave(wave1, 3, &*chain, delta_options), one);

  const auto delta = store::Reader::from_buffer(one, &error);
  ASSERT_TRUE(delta.has_value()) << error.to_string();
  EXPECT_EQ(delta->kind(), store::ArchiveKind::kDelta);
  EXPECT_EQ(delta->total_site_count(), 40);

  // Every rank the schedule never touched must cost zero archive bytes: a
  // footer-only inherited entry. (The converse is not asserted — a touched
  // site whose mutation happens not to change its crawl bytes may inherit
  // too.)
  const auto& inherited = delta->inherited_ranks();
  EXPECT_FALSE(inherited.empty());
  for (int rank = 1; rank <= 40; ++rank) {
    if (wave1.plan().decide(rank, 1).any()) continue;
    EXPECT_TRUE(std::binary_search(inherited.begin(), inherited.end(), rank))
        << "untouched rank " << rank << " was re-encoded";
  }
}

// ------------------------------------------------------------ golden pin --

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(CG_SOURCE_ROOT "/tests/golden/") + name);
  EXPECT_TRUE(in.good()) << name;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

TEST(WaveCorpusTest, WaveTwoReproducesCheckedInGoldenSummary) {
  // Generated by `cgsim crawl --sites 40 --wave 2 --json` when seeded
  // evolution landed: the pin that the wave schedule and mutations never
  // drift. A change that alters wave-2 bytes must update the fixture
  // deliberately, not silently.
  const evolve::WaveCorpus view(small_params(40), evolve::EvolutionParams{},
                                2);
  crawler::Crawler crawler(view);
  analysis::Analyzer analyzer(view.entities());
  crawler::CrawlOptions options;
  crawler.crawl(view.size(), options, [&](instrument::VisitLog&& log) {
    analyzer.ingest(log);
  });
  EXPECT_EQ(report::summary_to_json(analyzer, 20).dump(2) + "\n",
            read_golden("wave2_summary.json"));
}

}  // namespace
}  // namespace cg
