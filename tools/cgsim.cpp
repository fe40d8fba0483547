// cgsim: command-line driver for the CookieGuard simulator.
//
//   cgsim crawl | pack | query | audit | breakage | perf  [--flag ...]
//   cgsim verify-archive FILE | trace-check FILE
//
// main() declares the flags each command accepts, parsed by src/cli/: an
// unknown flag, a value flag with no value, or a malformed number exits 2
// naming the flag (the message lists the flags the command accepts).
//
// --policy selects the cookie-partitioning engine for the defense bake-off
// (src/policy/): none is the status-quo jar and byte-identical to omitting
// the flag; cookieguard = none's jar plus a CookieGuard on every crawl
// worker; fpi is Firefox First-Party Isolation; chips is RFC6265bis
// partitioned cookies. --guard is an alias for --policy cookieguard (it
// cannot be combined with --policy fpi or chips). The active policy is
// recorded in the CGAR footer, hard provenance like the corpus and fault
// seeds.
//
// pack runs the measurement crawl once and streams it into a CGAR archive
// (src/store/) — crawl once, analyze many times. query replays an archive
// through the analyzer in seconds; verify-archive CRC-walks every block and
// reports the corruption taxonomy class on failure. pack at any thread
// count emits a byte-identical archive, and pack --checkpoint / --resume
// reuses the partial archive segment: the resumed file equals an
// uninterrupted pack byte-for-byte.
//
// Longitudinal waves (src/evolve/ + store delta archives):
//   --stream         crawl from a streaming corpus provider — blueprints
//                    are generated on demand, so memory stays O(shards)
//                    instead of O(sites) (the 1M-site configuration).
//                    Output is byte-identical to the materialized corpus.
//   --wave W         crawl/pack wave W of the evolving corpus (seeded
//                    schedule; wave 0 is byte-identical to the base
//                    corpus). Implies --stream.
//   --evo-seed S     evolution schedule seed (decimal or 0x hex).
//   --totals-only    keep only the Totals counters during analysis —
//                    aggregate state stays O(1) in site count (pairs /
//                    domains / ranked views read empty).
//   pack --base A[,B,...]  pack the next wave as a *delta archive* against
//                    the base+delta chain A,B,...: unchanged sites become
//                    zero-byte inherited footer entries, changed sites
//                    compact diff blocks. The chain tail pins the corpus
//                    (seeds, site count, policy, wave); checkpoint/resume
//                    is not supported for delta packs.
//   query --archive A,B,... [--wave W]  analyzes wave W (default: newest)
//                    by materializing sites through the base+delta chain —
//                    answers are byte-identical to querying an
//                    independently packed full archive of that wave.
//
// --threads 0 (the default for crawl/perf here is 1) uses every hardware
// thread; any thread count produces byte-identical output — including the
// --trace / --metrics files (virtual-time only; --trace-wall-clock
// deliberately trades that identity for real-time annotations).
// trace-check re-parses an exported trace and verifies it is valid Chrome
// trace-event JSON with non-decreasing virtual time on every track.
//
// Everything the benches compute, behind one adoptable binary with
// machine-readable output.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/archive.h"
#include "breakage/breakage.h"
#include "cli/flags.h"
#include "cookieguard/deployment.h"
#include "corpus/corpus.h"
#include "corpus/streaming_corpus.h"
#include "crawler/crawler.h"
#include "entities/entity_map.h"
#include "evolve/wave_corpus.h"
#include "obs/metrics.h"
#include "perf/perf.h"
#include "policy/partition_policy.h"
#include "report/report.h"
#include "store/atomic_file.h"
#include "store/chain.h"
#include "store/reader.h"
#include "store/writer.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace {

using namespace cg;

corpus::CorpusParams corpus_params(const cli::Flags& flags) {
  corpus::CorpusParams params;
  params.site_count = flags.get_int("sites", 2000, 1);
  return params;
}

/// Comma-separated path list (for --base / --archive chains).
std::vector<std::string> split_paths(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) out.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// The footer-provenance mirror of the crawl's policy flag.
store::ArchivePolicy to_archive_policy(policy::PolicyKind kind) {
  switch (kind) {
    case policy::PolicyKind::kNone:
      return store::ArchivePolicy::kNone;
    case policy::PolicyKind::kCookieGuard:
      return store::ArchivePolicy::kCookieGuard;
    case policy::PolicyKind::kFirstPartyIsolation:
      return store::ArchivePolicy::kFirstPartyIsolation;
    case policy::PolicyKind::kChips:
      return store::ArchivePolicy::kChips;
  }
  return store::ArchivePolicy::kNone;
}

/// Peak resident set size in KiB (0 where unsupported). Reported on stderr
/// only — stdout stays byte-deterministic.
long peak_rss_kib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) return usage.ru_maxrss;
#endif
  return 0;
}

/// The corpus provider a crawl/pack run uses: materialized by default,
/// streaming under --stream, wave-evolved under --wave/--evo-seed (whose
/// seed lands in `evolution_seed`). All three produce byte-identical
/// blueprints for the same (seed, wave).
std::unique_ptr<corpus::CorpusView> make_corpus_view(
    const cli::Flags& flags, std::uint64_t* evolution_seed = nullptr) {
  const corpus::CorpusParams params = corpus_params(flags);
  if (flags.has("wave") || flags.has("evo-seed")) {
    evolve::EvolutionParams evolution;
    evolution.seed = flags.get_u64("evo-seed", evolution.seed);
    if (evolution_seed != nullptr) *evolution_seed = evolution.seed;
    return std::make_unique<evolve::WaveCorpus>(params, evolution,
                                                flags.get_int("wave", 0, 0));
  }
  if (flags.has("stream")) {
    return std::make_unique<corpus::StreamingCorpus>(params);
  }
  return std::make_unique<corpus::Corpus>(params);
}

/// Opens a comma-separated archive list and links it into a wave chain.
/// `readers` owns the archives for the chain's lifetime.
std::optional<store::WaveChain> open_chain(
    const std::vector<std::string>& paths,
    std::vector<store::Reader>* readers) {
  readers->reserve(paths.size());
  for (const std::string& path : paths) {
    store::Error error;
    auto reader = store::Reader::open(path, &error);
    if (!reader) {
      std::fprintf(stderr, "cgsim: cannot open archive %s (%s)\n",
                   path.c_str(), error.to_string().c_str());
      return std::nullopt;
    }
    readers->push_back(std::move(*reader));
  }
  std::vector<const store::Reader*> links;
  links.reserve(readers->size());
  for (const store::Reader& reader : *readers) links.push_back(&reader);
  store::Error error;
  auto chain = store::WaveChain::link(std::move(links), &error);
  if (!chain) {
    std::fprintf(stderr, "cgsim: archive chain rejected (%s)\n",
                 error.to_string().c_str());
  }
  return chain;
}

/// Renders `contents` into `path` via tmp+flush+rename. False (with the
/// failure on stderr) when the result did not land — callers treat their
/// output files as products, never as best-effort side effects.
bool write_output(const std::string& path, const std::string& contents) {
  store::Error error;
  if (!store::write_file_atomic(path, contents, &error)) {
    std::fprintf(stderr, "cgsim: %s\n", error.to_string().c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Writes `json` to the file --`flag` names, if it names one. False when
/// that write failed.
bool write_json_output(const cli::Flags& flags, std::string_view flag,
                       const report::Json& json) {
  const auto path = flags.find(flag);
  return !path || write_output(path->text, json.dump(2) + '\n');
}

/// Summary lines + optional machine-readable outputs, shared by the live
/// crawl and the analyze-from-archive path so their stdout is diffable.
/// False when a requested output file could not be written.
bool print_analysis(const cli::Flags& flags,
                    const analysis::Analyzer& analyzer) {
  const auto& t = analyzer.totals();
  const double n = t.sites_complete;
  std::printf("sites analyzed: %d\n", t.sites_complete);
  std::printf("cross-domain exfiltration: %.1f%% | overwriting: %.1f%% | "
              "deletion: %.1f%%\n",
              100.0 * t.sites_doc_exfil / n, 100.0 * t.sites_doc_overwrite / n,
              100.0 * t.sites_doc_delete / n);

  bool ok = write_json_output(flags, "json",
                              report::summary_to_json(analyzer, 20));
  if (const auto path = flags.find("pairs-csv")) {
    std::ostringstream out;
    report::write_pairs_csv(analyzer, 20, out);
    ok = write_output(path->text, out.str()) && ok;
  }
  if (const auto path = flags.find("domains-csv")) {
    std::ostringstream out;
    report::write_domains_csv(analyzer, 20, out);
    ok = write_output(path->text, out.str()) && ok;
  }
  return ok;
}

/// The --resume checkpoint, checked against the corpus it must continue;
/// nullopt (reason on stderr) when it cannot be used. A leftover
/// `<path>.tmp` from an interrupted atomic write was never promoted to
/// truth, so it is ignored with a warning.
std::optional<crawler::CrawlCheckpoint> load_resume(
    const std::string& path, const corpus::CorpusView& corpus) {
  std::string tmp = path;
  tmp += store::kAtomicTmpSuffix;
  std::error_code tmp_ec;
  if (std::filesystem::exists(tmp, tmp_ec)) {
    std::fprintf(stderr,
                 "cgsim: ignoring leftover %s (interrupted checkpoint write)\n",
                 tmp.c_str());
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cgsim: cannot open checkpoint %s\n", path.c_str());
    return std::nullopt;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  if (in.bad()) {
    std::fprintf(stderr, "cgsim: read failed on checkpoint %s\n", path.c_str());
    return std::nullopt;
  }
  auto checkpoint = crawler::CrawlCheckpoint::from_json_string(text);
  if (!checkpoint) {
    std::fprintf(stderr, "cgsim: cannot parse checkpoint %s\n", path.c_str());
    return std::nullopt;
  }
  if (checkpoint->corpus_seed != corpus.params().seed ||
      checkpoint->target_count > corpus.size()) {
    std::fprintf(stderr, "cgsim: checkpoint does not match this corpus\n");
    return std::nullopt;
  }
  return checkpoint;
}

/// Checkpoint emission callback: atomic replace, warn-only on failure (the
/// crawl keeps running; the previous checkpoint stays the recovery point).
std::function<void(const crawler::CrawlCheckpoint&)> checkpoint_writer(
    const std::string& checkpoint_path) {
  return [checkpoint_path](const crawler::CrawlCheckpoint& checkpoint) {
    std::string contents = checkpoint.to_json_string();
    contents += '\n';
    store::Error error;
    if (!store::write_file_atomic(checkpoint_path, contents, &error)) {
      std::fprintf(stderr, "cgsim: checkpoint not persisted: %s\n",
                   error.to_string().c_str());
    }
  };
}

/// The crawl set-up crawl and pack share: --threads, --no-faults, the
/// partitioning policy, and a checkpoint to --checkpoint FILE every
/// --checkpoint-every N sites. --guard is an alias for --policy cookieguard
/// and exits 2 beside another defense. Under cookieguard every crawl worker
/// runs a CookieGuard held in `guards`, which must outlive the crawl.
crawler::CrawlOptions crawl_options(
    const cli::Flags& flags, std::optional<cookieguard::Deployment>* guards) {
  crawler::CrawlOptions options;
  options.threads = flags.get_int("threads", 1, 0);
  if (flags.has("no-faults")) options.fault_plan.reset();
  options.policy = cli::policy_kind(flags);
  if (flags.has("guard")) {
    if (options.policy != policy::PolicyKind::kNone &&
        options.policy != policy::PolicyKind::kCookieGuard) {
      flags.fail("--guard means --policy cookieguard; it cannot be combined "
                 "with --policy " +
                 std::string(policy::to_string(options.policy)));
    }
    options.policy = policy::PolicyKind::kCookieGuard;
  }
  if (options.policy == policy::PolicyKind::kCookieGuard) {
    guards->emplace(options.threads);
    options.extension_factory = (*guards)->factory();
  }
  // Crash-safe progress: persist a checkpoint every N sites; --resume
  // continues a killed run from the persisted file.
  if (const auto path = flags.find("checkpoint")) {
    options.checkpoint_interval = flags.get_int("checkpoint-every", 100, 0);
    options.on_checkpoint = checkpoint_writer(path->text);
  }
  return options;
}

int cmd_crawl(const cli::Flags& flags) {
  const std::unique_ptr<corpus::CorpusView> corpus_view(
      make_corpus_view(flags));
  const corpus::CorpusView& corpus = *corpus_view;
  crawler::Crawler crawler(corpus);
  analysis::AnalyzerOptions analyzer_options;
  analyzer_options.totals_only = flags.has("totals-only");
  analysis::Analyzer analyzer(corpus.entities(), analyzer_options);

  std::optional<cookieguard::Deployment> guards;
  crawler::CrawlOptions options = crawl_options(flags, &guards);

  // Observability: stream the trace straight to disk (a 20k-site trace need
  // not fit in memory); metrics registries fold site-by-site and are
  // serialized once at the end.
  const cli::TraceFile trace = cli::open_trace(flags);
  options.trace = trace.recorder.get();
  obs::MetricsRegistry metrics;
  obs::MetricsRegistry scheduler_metrics;
  if (flags.has("metrics")) options.metrics = &metrics;
  if (flags.has("runtime-metrics")) {
    options.scheduler_metrics = &scheduler_metrics;
  }

  const auto sink = [&](instrument::VisitLog&& log) { analyzer.ingest(log); };
  crawler::CrawlHealth health;
  if (const auto resume = flags.find("resume")) {
    const auto checkpoint = load_resume(resume->text, corpus);
    if (!checkpoint) return 1;
    std::printf("resuming at site %d of %d...\n", checkpoint->next_index,
                checkpoint->target_count);
    health = crawler.resume(*checkpoint, options, sink);
  } else {
    std::string note;
    if (guards) note += " with CookieGuard";
    if (options.policy != policy::PolicyKind::kNone &&
        options.policy != policy::PolicyKind::kCookieGuard) {
      note += " under policy ";
      note += policy::to_string(options.policy);
    }
    if (flags.has("wave") || flags.has("evo-seed")) {
      note += " at wave ";
      note += std::to_string(flags.get_int("wave", 0, 0));
    } else if (flags.has("stream")) {
      note += " (streaming)";
    }
    std::printf("crawling %d sites%s...\n", corpus.size(), note.c_str());
    health = crawler.crawl(corpus.size(), options, sink);
  }

  if (trace.recorder != nullptr) {
    trace.recorder->finish();
    trace.out->flush();
    if (!trace.out->good()) {
      std::fprintf(stderr, "cgsim: writing %s failed\n", trace.path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu trace events)\n", trace.path.c_str(),
                trace.recorder->event_count());
  }
  if (!write_json_output(flags, "metrics", metrics.to_json()) ||
      !write_json_output(flags, "runtime-metrics",
                         scheduler_metrics.to_json())) {
    return 1;
  }

  std::printf(
      "crawl health: %d retained, %d excluded (%.1f%%), %d degraded, "
      "%d recovered by retries (%d attempts total)\n",
      health.sites_retained, health.sites_excluded,
      100.0 * health.exclusion_rate(), health.sites_degraded,
      health.sites_recovered, health.total_attempts);
  if (!write_json_output(flags, "health", health.to_json())) return 1;

  // The streaming-crawl RSS gate reads this line; stderr because peak RSS
  // is an OS measurement, not part of the deterministic output.
  std::fprintf(stderr, "cgsim: peak rss: %ld KiB\n", peak_rss_kib());
  return print_analysis(flags, analyzer) ? 0 : 1;
}

// Crawl once, analyze many times: pack streams the measurement crawl into a
// CGAR archive. No analyzer runs here — the archive *is* the product.
int cmd_pack(const cli::Flags& flags) {
  std::optional<cookieguard::Deployment> guards;
  crawler::CrawlOptions options = crawl_options(flags, &guards);

  // Delta packs (--base): the base chain pins the corpus — seeds, site
  // count, policy, wave — so the next wave is crawled from the exact
  // evolving population the base was, and the new archive records the
  // chain tail as its BaseProvenance.
  std::vector<store::Reader> base_readers;
  std::optional<store::WaveChain> base_chain;
  std::unique_ptr<corpus::CorpusView> corpus_view;
  std::uint64_t evolution_seed = 0;
  auto wave = static_cast<std::uint32_t>(flags.get_int("wave", 0, 0));

  if (const auto base = flags.find("base")) {
    if (flags.has("resume") || flags.has("checkpoint")) {
      flags.fail("checkpoint/resume is not supported for delta packs "
                 "(--base)");
    }
    base_chain = open_chain(split_paths(base->text), &base_readers);
    if (!base_chain) return 1;
    const store::Reader& tail = base_chain->archive(base_chain->waves() - 1);
    if (to_archive_policy(options.policy) != tail.policy()) {
      flags.fail("--policy " + std::string(policy::to_string(options.policy)) +
                 " does not match the base chain's recorded policy " +
                 std::string(store::archive_policy_name(tail.policy())));
    }
    if (!flags.has("wave")) wave = tail.wave() + 1;
    if (wave <= tail.wave()) {
      flags.fail("--wave " + std::to_string(wave) +
                 " is not later than the base chain's wave " +
                 std::to_string(tail.wave()));
    }
    evolve::EvolutionParams evolution;
    if (tail.evolution_seed() != 0) evolution.seed = tail.evolution_seed();
    evolution.seed = flags.get_u64("evo-seed", evolution.seed);
    if (tail.evolution_seed() != 0 &&
        evolution.seed != tail.evolution_seed()) {
      std::fprintf(stderr,
                   "cgsim: --evo-seed 0x%llX does not match the base "
                   "chain's evolution seed 0x%llX\n",
                   static_cast<unsigned long long>(evolution.seed),
                   static_cast<unsigned long long>(tail.evolution_seed()));
      return 2;
    }
    evolution_seed = evolution.seed;
    corpus::CorpusParams params;
    params.site_count = tail.total_site_count();
    params.seed = tail.corpus_seed();
    if (flags.has("sites") &&
        flags.get_int("sites", 0, 1) != params.site_count) {
      std::fprintf(stderr,
                   "cgsim: --sites ignored for delta packs (the base chain "
                   "pins %d sites)\n",
                   params.site_count);
    }
    corpus_view = std::make_unique<evolve::WaveCorpus>(
        params, evolution, static_cast<int>(wave));
    options.delta_base = &*base_chain;
  } else {
    corpus_view = make_corpus_view(flags, &evolution_seed);
  }
  const corpus::CorpusView& corpus = *corpus_view;
  crawler::Crawler crawler(corpus);

  const std::string out_path = flags.get("out", "crawl.cgar");
  store::WriterOptions writer_options;
  writer_options.corpus_seed = corpus.params().seed;
  const fault::FaultPlan plan = crawler.plan_for(options);
  writer_options.fault_seed = plan.enabled() ? plan.params().seed : 0;
  writer_options.policy = to_archive_policy(options.policy);
  writer_options.wave = wave;
  writer_options.evolution_seed = evolution_seed;
  if (base_chain) {
    const store::Reader& tail = base_chain->archive(base_chain->waves() - 1);
    if (writer_options.fault_seed != tail.fault_seed()) {
      std::fprintf(stderr,
                   "cgsim: a delta wave must crawl under the base chain's "
                   "fault plan (base fault seed 0x%llX, this crawl 0x%llX — "
                   "%s)\n",
                   static_cast<unsigned long long>(tail.fault_seed()),
                   static_cast<unsigned long long>(writer_options.fault_seed),
                   tail.fault_seed() == 0 ? "pass --no-faults"
                                          : "drop --no-faults");
      return 2;
    }
    writer_options.kind = store::ArchiveKind::kDelta;
    store::BaseProvenance base;
    base.corpus_seed = tail.corpus_seed();
    base.fault_seed = tail.fault_seed();
    base.evolution_seed = tail.evolution_seed();
    base.policy = tail.policy();
    base.wave = tail.wave();
    base.site_count = static_cast<std::uint32_t>(tail.total_site_count());
    base.footer_crc = tail.footer_crc();
    writer_options.base = base;
  }

  // Self-healing I/O: read-back-verify appended blocks on request, and when
  // checkpointing, keep the unsynced tail in memory so an fsync loss at the
  // checkpoint barrier is healed instead of killing the pack.
  writer_options.io.scrub_writes = flags.has("scrub");
  writer_options.io.buffer_unsynced = options.checkpoint_interval > 0;
  obs::MetricsRegistry pack_metrics;
  writer_options.metrics = &pack_metrics;
  if (flags.has("metrics")) options.metrics = &pack_metrics;

  std::unique_ptr<store::Writer> writer;
  store::Error store_error;
  crawler::CrawlHealth health;

  if (const auto resume = flags.find("resume")) {
    const auto checkpoint = load_resume(resume->text, corpus);
    if (!checkpoint) return 1;
    if (checkpoint->archive_sites < 0) {
      std::fprintf(stderr,
                   "cgsim: checkpoint has no archive segment — it was "
                   "written by `crawl`, not `pack`\n");
      return 1;
    }
    // The checkpoint references the archive segment; the writer truncates
    // any blocks written after it and appends from there.
    writer = store::Writer::resume(out_path, writer_options,
                                   checkpoint->archive_sites, &store_error);
    if (writer == nullptr) {
      std::fprintf(stderr, "cgsim: cannot resume archive %s (%s)\n",
                   out_path.c_str(), store_error.to_string().c_str());
      return 1;
    }
    options.archive = writer.get();
    std::printf("resuming pack at site %d of %d (%d blocks kept)...\n",
                checkpoint->next_index, checkpoint->target_count,
                writer->sites_written());
    health = crawler.resume(*checkpoint, options,
                            [](instrument::VisitLog&&) {});
  } else {
    writer = store::Writer::create(out_path, writer_options, &store_error);
    if (writer == nullptr) {
      std::fprintf(stderr, "cgsim: %s\n", store_error.to_string().c_str());
      return 1;
    }
    options.archive = writer.get();
    if (base_chain) {
      std::printf("packing wave %u of %d sites into %s (delta vs wave %u)...\n",
                  static_cast<unsigned>(wave), corpus.size(),
                  out_path.c_str(),
                  static_cast<unsigned>(
                      base_chain->archive(base_chain->waves() - 1).wave()));
    } else {
      std::printf("packing %d sites into %s...\n", corpus.size(),
                  out_path.c_str());
    }
    health = crawler.crawl(corpus.size(), options,
                           [](instrument::VisitLog&&) {});
  }

  if (!writer->finish(&store_error)) {
    std::fprintf(stderr, "cgsim: finalising %s failed (%s)\n",
                 out_path.c_str(), store_error.to_string().c_str());
    return 1;
  }
  std::printf(
      "crawl health: %d retained, %d excluded (%.1f%%), %d attempts total\n",
      health.sites_retained, health.sites_excluded,
      100.0 * health.exclusion_rate(), health.total_attempts);
  const int quarantined = health.exclusions[static_cast<int>(
      fault::FailureClass::kStorageFailure)];
  if (quarantined > 0) {
    std::printf("storage quarantine: %d sites excluded after exhausting the "
                "I/O retry budget\n",
                quarantined);
  }
  if (!write_json_output(flags, "metrics", pack_metrics.to_json())) return 1;
  if (base_chain) {
    const int total = writer->sites_written() + writer->inherited_written();
    std::printf(
        "wrote %s: wave %u, %d sites (%d delta blocks + %d inherited), "
        "%llu bytes\n",
        out_path.c_str(), static_cast<unsigned>(wave), total,
        writer->sites_written(), writer->inherited_written(),
        static_cast<unsigned long long>(writer->bytes_written()));
  } else {
    std::printf("wrote %s: %d sites, %llu bytes (%.1f bytes/site)\n",
                out_path.c_str(), writer->sites_written(),
                static_cast<unsigned long long>(writer->bytes_written()),
                writer->sites_written() > 0
                    ? static_cast<double>(writer->bytes_written()) /
                          writer->sites_written()
                    : 0.0);
  }
  return 0;
}

// Analyze-from-archive: everything `crawl` computes, without crawling. The
// archive list is one base+delta chain — a single full archive is a
// one-link chain — and the answers for a wave are byte-identical to
// querying an independently packed full archive of that wave.
int cmd_query(const cli::Flags& flags) {
  const std::vector<std::string> paths = split_paths(flags.get("archive", ""));
  if (paths.empty()) flags.fail("--archive FILE[,FILE...] is required");
  std::vector<store::Reader> readers;
  const auto chain = open_chain(paths, &readers);
  if (!chain) return 1;
  int wave_index = chain->waves() - 1;
  if (flags.has("wave")) {
    const auto want = static_cast<std::uint32_t>(flags.get_int("wave", 0, 0));
    wave_index = -1;
    for (int i = 0; i < chain->waves(); ++i) {
      if (chain->archive(i).wave() == want) wave_index = i;
    }
    if (wave_index < 0) {
      std::fprintf(stderr, "cgsim: wave %u is not in this chain\n",
                   static_cast<unsigned>(want));
      return 1;
    }
  }
  // The entity map is the builtin static table (Corpus::entities()
  // returns the same), so no corpus reconstruction is needed.
  analysis::Analyzer analyzer(entities::EntityMap::builtin());
  store::Error error;
  if (flags.has("site")) {
    const int rank = flags.get_int("site", 0, 0);
    // Footer-index random access: binary searches + block decodes, never a
    // file walk. The latency line on stderr makes that visible (and
    // regressing to a scan impossible to miss); stdout stays
    // byte-deterministic.
    const auto lookup_start =
        std::chrono::steady_clock::now();  // cglint: allow(D1) — per-query latency diagnostic on stderr; stdout bytes never depend on it
    const auto log = chain->visit(rank, wave_index, &error);
    const std::chrono::duration<double, std::micro> lookup_elapsed =
        std::chrono::steady_clock::now() - lookup_start;  // cglint: allow(D1) — per-query latency diagnostic on stderr; stdout bytes never depend on it
    if (!log) {
      std::fprintf(stderr, "cgsim: site %d: %s\n", rank,
                   error.to_string().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "cgsim: site %d decoded in %.1f us (index random access, "
                 "%d-site archive)\n",
                 rank, lookup_elapsed.count(), chain->site_count(wave_index));
    analyzer.ingest(*log);
    std::printf("https://%s/ — %zu script inclusions, %zu cookie writes, "
                "%zu requests (attempts: %d, failure: %s)\n",
                log->site_host.c_str(), log->includes.size(),
                log->script_sets.size(), log->requests.size(), log->attempts,
                std::string(fault::failure_class_name(log->failure)).c_str());
    std::printf("%s\n", report::summary_to_json(analyzer, 10).dump(2).c_str());
    return 0;
  }
  if (!analysis::analyze_wave(*chain, wave_index, analyzer, &error)) {
    std::fprintf(stderr, "cgsim: archive chain is corrupt (%s)\n",
                 error.to_string().c_str());
    return 1;
  }
  return print_analysis(flags, analyzer) ? 0 : 1;
}

// CRC-walks every block; the cheap "is this artifact intact?" gate.
int cmd_verify_archive(const cli::Flags& flags) {
  const std::string& path = flags.positionals().front();
  store::Error error;
  const auto reader = store::Reader::open(path, &error);
  if (!reader) {
    std::fprintf(stderr, "cgsim: %s: rejected (%s)\n", path.c_str(),
                 error.to_string().c_str());
    return 1;
  }
  const auto stats = reader->verify(&error);
  if (!stats) {
    std::fprintf(stderr, "cgsim: %s: corrupt (%s)\n", path.c_str(),
                 error.to_string().c_str());
    return 1;
  }
  std::printf(
      "%s: ok — %d sites, %llu records, %llu bytes (%.1f bytes/site), "
      "format v%u, schema v%u, corpus seed 0x%llX\n",
      path.c_str(), stats->sites,
      static_cast<unsigned long long>(stats->record_count),
      static_cast<unsigned long long>(stats->file_bytes),
      stats->sites > 0
          ? static_cast<double>(stats->file_bytes) / stats->sites
          : 0.0,
      static_cast<unsigned>(store::kFormatVersion),
      static_cast<unsigned>(reader->schema_version()),
      static_cast<unsigned long long>(reader->corpus_seed()));
  std::printf("provenance: policy %s, %s archive, wave %u",
              std::string(store::archive_policy_name(reader->policy()))
                  .c_str(),
              std::string(store::archive_kind_name(reader->kind())).c_str(),
              static_cast<unsigned>(reader->wave()));
  if (reader->kind() == store::ArchiveKind::kDelta) {
    std::printf(" (base wave %u, %zu inherited ranks)",
                static_cast<unsigned>(reader->base().wave),
                reader->inherited_ranks().size());
  }
  std::printf("\n");
  return 0;
}

int cmd_audit(const cli::Flags& flags) {
  corpus::Corpus corpus(corpus_params(flags));
  const int index = flags.get_int("site", 0, 0) % corpus.size();
  crawler::Crawler crawler(corpus);
  crawler::CrawlOptions options;  // visit() never applies the fault plan
  const auto log = crawler.visit(index, options);

  analysis::Analyzer analyzer(corpus.entities());
  analyzer.ingest(log);
  std::printf("https://%s/ — %zu script inclusions, %zu cookie writes, "
              "%zu requests\n",
              corpus.site(index).host.c_str(), log.includes.size(),
              log.script_sets.size(), log.requests.size());
  std::printf("%s\n", report::summary_to_json(analyzer, 10).dump(2).c_str());
  return 0;
}

int cmd_breakage(const cli::Flags& flags) {
  corpus::Corpus corpus(corpus_params(flags));
  breakage::BreakageEvaluator evaluator(corpus);
  const auto sample = evaluator.sample_sites(flags.get_int("sample", 100, 1),
                                             corpus.size());
  for (const auto mode :
       {breakage::GuardMode::kStrict, breakage::GuardMode::kEntityGrouping,
        breakage::GuardMode::kGroupingPlusPolicies}) {
    const auto summary = evaluator.summarize(sample, mode);
    std::printf("%-42s major breakage on %.1f%% of %d sites\n",
                breakage::to_string(mode),
                100.0 * summary.sites_major / summary.sites, summary.sites);
  }
  return 0;
}


// Validates an exported trace: parses it with report::Json (so any
// serialization bug that breaks JSON fails here), checks the Chrome
// trace-event envelope, and verifies every track's events are
// non-decreasing in virtual time — the determinism contract of the
// stable-sorted per-site merge. (Global monotonicity is deliberately not
// required: site clocks are staggered and retries shift them, so a later
// track can legitimately start before an earlier track's retries end.)
int cmd_trace_check(const cli::Flags& flags) {
  const std::string& path = flags.positionals().front();
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cgsim: cannot open %s\n", path.c_str());
    return 1;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto parsed = report::Json::parse(text);
  if (!parsed || !parsed->is_object()) {
    std::fprintf(stderr, "cgsim: %s is not valid JSON\n", path.c_str());
    return 1;
  }
  const auto* events = parsed->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "cgsim: %s has no traceEvents array\n", path.c_str());
    return 1;
  }

  std::map<long long, long long> last_ts_by_track;
  std::size_t spans = 0, instants = 0, counters = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const auto& event = events->at(i);
    const auto* ph = event.find("ph");
    const auto* tid = event.find("tid");
    const auto* ts = event.find("ts");
    if (ph == nullptr || !ph->is_string() || tid == nullptr ||
        ts == nullptr || event.find("name") == nullptr ||
        event.find("pid") == nullptr) {
      std::fprintf(stderr, "cgsim: event %zu is missing required fields\n", i);
      return 1;
    }
    const std::string& phase = ph->as_string();
    if (phase == "X") {
      ++spans;
      if (event.find("dur") == nullptr) {
        std::fprintf(stderr, "cgsim: complete event %zu has no dur\n", i);
        return 1;
      }
    } else if (phase == "i") {
      ++instants;
    } else if (phase == "C") {
      ++counters;
    } else {
      std::fprintf(stderr, "cgsim: event %zu has unexpected phase %s\n", i,
                   phase.c_str());
      return 1;
    }
    const long long track = tid->as_int();
    const long long when = ts->as_int();
    const auto it = last_ts_by_track.find(track);
    if (it != last_ts_by_track.end() && when < it->second) {
      std::fprintf(stderr,
                   "cgsim: event %zu goes back in time on track %lld "
                   "(%lld < %lld)\n",
                   i, track, when, it->second);
      return 1;
    }
    last_ts_by_track[track] = when;
  }
  std::printf(
      "%s: ok — %zu events (%zu spans, %zu instants, %zu counter samples) "
      "on %zu tracks, non-decreasing virtual time per track\n",
      path.c_str(), events->size(), spans, instants, counters,
      last_ts_by_track.size());
  return 0;
}

int cmd_perf(const cli::Flags& flags) {
  corpus::Corpus corpus(corpus_params(flags));
  const auto comparison = perf::compare_page_load(
      corpus, corpus.size(), {}, flags.get_int("threads", 1, 0));
  std::printf("load event: %.0f ms -> %.0f ms (overhead %.0f ms)\n",
              comparison.normal.load_event.mean_ms,
              comparison.guarded.load_event.mean_ms,
              comparison.mean_overhead_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Each command declares every flag it reads; anything else exits 2.
  const struct Command {
    std::string_view name;
    cli::FlagSpec spec;
    int (*run)(const cli::Flags&);
  } commands[] = {
      {"crawl",
       {.values = {"sites", "threads", "policy", "wave", "evo-seed", "json",
                   "pairs-csv", "domains-csv", "health", "checkpoint",
                   "checkpoint-every", "resume", "trace", "trace-detail",
                   "metrics", "runtime-metrics"},
        .switches = {"guard", "no-faults", "stream", "totals-only",
                     "trace-wall-clock"}},
       cmd_crawl},
      {"pack",
       {.values = {"sites", "threads", "policy", "wave", "evo-seed", "base",
                   "out", "checkpoint", "checkpoint-every", "resume",
                   "metrics"},
        .switches = {"guard", "no-faults", "stream", "scrub"}},
       cmd_pack},
      {"query",
       {.values = {"archive", "wave", "site", "json", "pairs-csv",
                   "domains-csv"}},
       cmd_query},
      {"verify-archive", {.positionals = 1}, cmd_verify_archive},
      {"audit", {.values = {"sites", "site"}}, cmd_audit},
      {"breakage", {.values = {"sites", "sample"}}, cmd_breakage},
      {"perf", {.values = {"sites", "threads"}}, cmd_perf},
      {"trace-check", {.positionals = 1}, cmd_trace_check},
  };
  const std::string_view name = argc > 1 ? argv[1] : "";
  std::string names;
  for (const Command& command : commands) {
    if (command.name == name) {
      return command.run(cli::Flags::parse("cgsim " + std::string(name), argc,
                                           argv, 2, command.spec));
    }
    names += names.empty() ? "<" : "|";
    names += command.name;
  }
  cli::usage_error("usage", "cgsim " + names + "> [flags]");
}
