// bench_longitudinal: the longitudinal-wave experiment — seeded corpus
// evolution packed as a base archive plus per-wave deltas.
//
// Packs wave 0 as a full CGAR archive, then each later wave as a delta
// archive against the chain so far (exactly what `cgsim pack --base` does,
// in memory), and for every wave also packs an independent full archive of
// the same evolved corpus. Three gates, each a hard failure:
//
//   1. Compression: a wave's delta archive is at most kMaxDeltaRatio of
//      the same wave's full archive at the default churn rates — the
//      point of storing waves as deltas.
//   2. Equivalence: analyzing wave w through the base+delta chain
//      (WaveChain materialization) produces byte-identical Table 1 /
//      totals / top-N JSON to analyzing the independently packed full
//      archive of wave w.
//   3. Determinism: the delta archive packed at N threads is
//      byte-identical to the 1-thread pack.
//
// CG_SITES scales the corpus (default 2000 here, not the paper's 20000 —
// every wave is crawled twice, once for the delta and once for the full
// reference). CG_WAVES sets the chain length (default 3: one base + two
// deltas).
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/archive.h"
#include "bench_util.h"
#include "entities/entity_map.h"
#include "evolve/wave_corpus.h"
#include "report/report.h"
#include "store/chain.h"
#include "store/reader.h"
#include "store/writer.h"

namespace {

using namespace cg;

constexpr double kMaxDeltaRatio = 0.25;

/// Crawls `view` into an in-memory archive. `base` non-null packs a delta
/// archive against the chain's newest wave.
std::string pack_wave(const corpus::CorpusView& view, int threads,
                      const store::WaveChain* base,
                      store::WriterOptions writer_options) {
  std::ostringstream out(std::ios::binary);
  store::Writer writer(&out, writer_options);
  crawler::Crawler crawler(view);
  crawler::CrawlOptions options;
  options.threads = threads;
  options.archive = &writer;
  options.delta_base = base;
  crawler.crawl(view.size(), options, [](instrument::VisitLog&&) {});
  store::Error error;
  if (!writer.finish(&error)) {
    std::fprintf(stderr, "error: pack failed (%s)\n",
                 error.to_string().c_str());
    std::exit(1);
  }
  return std::move(out).str();
}

store::Reader open_buffer(std::string bytes) {
  store::Error error;
  auto reader = store::Reader::from_buffer(std::move(bytes), &error);
  if (!reader) {
    std::fprintf(stderr, "error: packed archive rejected (%s)\n",
                 error.to_string().c_str());
    std::exit(1);
  }
  return std::move(*reader);
}

/// The full analysis rendering of one wave — the byte string gate 2
/// compares.
std::string analysis_fingerprint(analysis::Analyzer& analyzer) {
  return report::summary_to_json(analyzer, 20).dump();
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_flags(argc, argv, {"threads"});
  corpus::CorpusParams params;
  params.site_count = cli::env_int("CG_SITES", 2000, 1);
  const int threads = bench::crawl_threads(flags);
  const int waves = cli::env_int("CG_WAVES", 3, 2, 64);
  const evolve::EvolutionParams evolution;  // default churn rates

  std::printf("================================================================\n");
  std::printf("Longitudinal waves: delta archives vs full packs\n");
  std::printf("corpus: %d sites, seed 0x%llX; %d waves, evolution seed "
              "0x%llX, %d crawl thread%s\n",
              params.site_count,
              static_cast<unsigned long long>(params.seed), waves,
              static_cast<unsigned long long>(evolution.seed), threads,
              threads == 1 ? "" : "s");
  std::printf("================================================================\n");

  // Shared provenance for every wave of the chain.
  store::WriterOptions base_options;
  base_options.corpus_seed = params.seed;
  {
    corpus::Corpus probe(corpus::CorpusParams{});
    crawler::Crawler crawler(probe);
    const fault::FaultPlan plan = crawler.plan_for(crawler::CrawlOptions{});
    base_options.fault_seed = plan.enabled() ? plan.params().seed : 0;
  }
  base_options.evolution_seed = evolution.seed;

  // Readers are heap-held so WaveChain's borrowed pointers stay stable as
  // the chain grows.
  std::vector<std::unique_ptr<store::Reader>> chain_readers;
  bool all_ok = true;

  for (int wave = 0; wave < waves; ++wave) {
    const evolve::WaveCorpus view(params, evolution, wave);

    // Independent full pack of this wave — the size baseline and the
    // equivalence reference.
    store::WriterOptions full_options = base_options;
    full_options.wave = static_cast<std::uint32_t>(wave);
    std::string full_bytes = pack_wave(view, threads, nullptr, full_options);
    const std::uint64_t full_size = full_bytes.size();

    if (wave == 0) {
      chain_readers.push_back(
          std::make_unique<store::Reader>(open_buffer(std::move(full_bytes))));
      std::printf("  wave 0: full archive %8llu bytes (chain base)\n",
                  static_cast<unsigned long long>(full_size));
      continue;
    }

    // Delta pack against the chain so far.
    std::vector<const store::Reader*> links;
    for (const auto& reader : chain_readers) links.push_back(reader.get());
    store::Error error;
    auto chain = store::WaveChain::link(links, &error);
    if (!chain) {
      std::fprintf(stderr, "error: chain link failed at wave %d (%s)\n",
                   wave, error.to_string().c_str());
      return 1;
    }
    const store::Reader& tail = chain->archive(chain->waves() - 1);
    store::WriterOptions delta_options = base_options;
    delta_options.kind = store::ArchiveKind::kDelta;
    delta_options.wave = static_cast<std::uint32_t>(wave);
    delta_options.base.corpus_seed = tail.corpus_seed();
    delta_options.base.fault_seed = tail.fault_seed();
    delta_options.base.evolution_seed = tail.evolution_seed();
    delta_options.base.policy = tail.policy();
    delta_options.base.wave = tail.wave();
    delta_options.base.site_count =
        static_cast<std::uint32_t>(tail.total_site_count());
    delta_options.base.footer_crc = tail.footer_crc();

    std::string delta_bytes =
        pack_wave(view, threads, &*chain, delta_options);
    const std::uint64_t delta_size = delta_bytes.size();
    const double ratio =
        full_size > 0 ? static_cast<double>(delta_size) / full_size : 0.0;

    // Gate 3: N-thread pack == 1-thread pack, byte for byte.
    bool thread_identical = true;
    if (threads != 1) {
      thread_identical =
          pack_wave(view, 1, &*chain, delta_options) == delta_bytes;
    } else {
      thread_identical =
          pack_wave(view, 2, &*chain, delta_options) == delta_bytes;
    }

    auto delta_reader =
        std::make_unique<store::Reader>(open_buffer(std::move(delta_bytes)));
    const int inherited =
        static_cast<int>(delta_reader->inherited_ranks().size());
    const int blocks = delta_reader->site_count();
    chain_readers.push_back(std::move(delta_reader));

    // Gate 2: chain materialization reproduces the full archive's analysis.
    links.push_back(chain_readers.back().get());
    chain = store::WaveChain::link(links, &error);
    if (!chain) {
      std::fprintf(stderr, "error: chain re-link failed at wave %d (%s)\n",
                   wave, error.to_string().c_str());
      return 1;
    }
    analysis::Analyzer chain_analyzer(entities::EntityMap::builtin());
    if (!analysis::analyze_wave(*chain, chain->waves() - 1, chain_analyzer,
                                &error)) {
      std::fprintf(stderr, "error: chain analysis failed at wave %d (%s)\n",
                   wave, error.to_string().c_str());
      return 1;
    }
    const store::Reader full_reader = open_buffer(
        pack_wave(view, threads, nullptr, full_options));
    analysis::Analyzer full_analyzer(entities::EntityMap::builtin());
    if (!analysis::analyze_archive(full_reader, full_analyzer, &error)) {
      std::fprintf(stderr, "error: full-archive analysis failed at wave %d "
                   "(%s)\n", wave, error.to_string().c_str());
      return 1;
    }
    const bool equivalent = analysis_fingerprint(chain_analyzer) ==
                            analysis_fingerprint(full_analyzer);
    const bool compact = ratio <= kMaxDeltaRatio;

    std::printf(
        "  wave %d: delta %8llu bytes vs full %8llu (%5.1f%%), "
        "%d delta blocks + %d inherited — %s%s%s\n",
        wave, static_cast<unsigned long long>(delta_size),
        static_cast<unsigned long long>(full_size), 100.0 * ratio, blocks,
        inherited, compact ? "compact" : "TOO LARGE",
        equivalent ? ", equivalent" : ", ANALYSIS MISMATCH",
        thread_identical ? ", thread-identical" : ", THREAD DIVERGENCE");
    all_ok = all_ok && compact && equivalent && thread_identical;
  }

  if (!all_ok) {
    std::printf("FAIL: a wave violated the delta-size, equivalence, or "
                "determinism gate\n");
    return 1;
  }
  std::printf("all gates passed: delta <= %.0f%% of full, chain analysis "
              "byte-identical to full packs, thread-identical deltas\n",
              100.0 * kMaxDeltaRatio);
  return 0;
}
