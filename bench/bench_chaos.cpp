// Storage-chaos soak: crawl → pack → crash → resume → verify → analyze
// under seeded write-side fault plans (fault::IoFaultPlan), asserting the
// robustness contract end to end:
//
//   1. A pack run under injected ENOSPC / short writes / fsync loss / bit
//      flips self-heals to an archive byte-identical to the fault-free one.
//   2. A crash after a checkpoint (torn tail + bit-flipped fragment) resumes
//      to the byte-identical archive.
//   3. The recovered archive verifies clean and reproduces the fault-free
//      run's Table 1 summary exactly.
//   4. The error-budget ledger balances: every injected fault is accounted
//      by the healer (io.injected.* == io.faults.*, bit flips == scrubs)
//      and no site was lost to storage (zero kStorageFailure exclusions).
//
// CG_SITES=<n> scales the corpus (default 400 here — a soak, not a crawl);
// CG_CHAOS_SEEDS=<n> sets how many fault plans to sweep (default 20).
// Prints one PASS/FAIL row per seed and exits non-zero on any failure, so
// CI can run it as a smoke job.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "report/report.h"
#include "store/byte_sink.h"
#include "store/reader.h"
#include "store/writer.h"

namespace {

using namespace cg;

constexpr int kCheckpointInterval = 50;
constexpr int kTableTopN = 10;
constexpr std::uint64_t kSeedStride = 0x9E3779B97F4A7C15ULL;  // golden ratio

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// The Table 1 summary JSON for an archive held in `bytes` — the output
/// whose invariance under chaos the soak asserts.
bool table1_from_archive(const corpus::Corpus& corpus, std::string bytes,
                         std::string* out) {
  store::Error error;
  auto reader = store::Reader::from_buffer(std::move(bytes), &error);
  if (!reader) {
    std::fprintf(stderr, "  archive rejected: %s\n", error.to_string().c_str());
    return false;
  }
  if (!reader->verify(&error).has_value()) {
    std::fprintf(stderr, "  archive corrupt: %s\n", error.to_string().c_str());
    return false;
  }
  analysis::Analyzer analyzer(corpus.entities());
  if (!analysis::analyze_archive(*reader, analyzer, &error)) {
    std::fprintf(stderr, "  replay failed: %s\n", error.to_string().c_str());
    return false;
  }
  *out = report::summary_to_json(analyzer, kTableTopN).dump();
  return true;
}

struct Reference {
  std::string archive;                               // finished bytes
  std::string table1;                                // summary JSON
  std::vector<crawler::CrawlCheckpoint> checkpoints; // with archive refs
  store::WriterOptions writer_options;               // provenance seeds
};

crawler::CrawlOptions crawl_options(store::Writer* writer,
                                    std::vector<crawler::CrawlCheckpoint>*
                                        checkpoints) {
  crawler::CrawlOptions options;
  options.archive = writer;
  options.checkpoint_interval = kCheckpointInterval;
  if (checkpoints != nullptr) {
    options.on_checkpoint = [checkpoints](
                                const crawler::CrawlCheckpoint& checkpoint) {
      checkpoints->push_back(checkpoint);
    };
  }
  return options;
}

/// Fault-free crawl+pack: the byte and Table 1 ground truth.
bool build_reference(const corpus::Corpus& corpus, Reference* reference) {
  crawler::Crawler crawler(corpus);
  reference->writer_options.corpus_seed = corpus.params().seed;
  const fault::FaultPlan plan = crawler.plan_for(crawler::CrawlOptions{});
  reference->writer_options.fault_seed =
      plan.enabled() ? plan.params().seed : 0;

  auto sink = std::make_unique<store::BufferSink>();
  store::BufferSink* buffer = sink.get();
  store::Writer writer(std::move(sink), reference->writer_options);
  const auto options = crawl_options(&writer, &reference->checkpoints);
  crawler.crawl(corpus.size(), options, [](instrument::VisitLog&&) {});
  store::Error error;
  if (!writer.finish(&error)) {
    std::fprintf(stderr, "reference pack failed: %s\n",
                 error.to_string().c_str());
    return false;
  }
  reference->archive = buffer->bytes();
  return table1_from_archive(corpus, reference->archive, &reference->table1);
}

/// One seed's ledger check: every injected fault accounted by the healer.
bool ledger_balances(const store::FaultingSink& injector,
                     const obs::MetricsRegistry& metrics) {
  bool ok = true;
  for (const auto cls :
       {fault::IoFault::kNoSpace, fault::IoFault::kShortWrite,
        fault::IoFault::kFsyncLost}) {
    const auto injected = injector.injected(cls);
    const auto healed = metrics.counter(
        std::string("io.faults.") + std::string(fault::io_fault_name(cls)));
    if (injected != healed) {
      std::fprintf(stderr,
                   "  ledger imbalance: injected %" PRId64 " %s, healer saw "
                   "%" PRId64 "\n",
                   injected, std::string(fault::io_fault_name(cls)).c_str(),
                   healed);
      ok = false;
    }
  }
  const auto flips = injector.injected(fault::IoFault::kBitFlip);
  const auto scrubbed = metrics.counter("io.scrub_detected");
  if (flips != scrubbed) {
    std::fprintf(stderr,
                 "  ledger imbalance: injected %" PRId64 " bit flips, scrub "
                 "caught %" PRId64 "\n",
                 flips, scrubbed);
    ok = false;
  }
  return ok;
}

/// Phase 1: the full crawl+pack under an active fault plan must self-heal
/// to the reference bytes with a balanced ledger and zero quarantined sites.
bool run_faulty_pack(const corpus::Corpus& corpus, const Reference& reference,
                     const fault::IoFaultPlan& plan,
                     const std::filesystem::path& path,
                     std::int64_t* faults_injected) {
  store::IoStatus status;
  auto file = store::FileSink::open(path.string(), /*append=*/false, &status);
  if (file == nullptr) {
    std::fprintf(stderr, "  cannot open %s: %s\n", path.c_str(),
                 status.to_string().c_str());
    return false;
  }
  obs::MetricsRegistry metrics;
  auto faulting = std::make_unique<store::FaultingSink>(std::move(file), plan,
                                                        &metrics);
  store::FaultingSink* injector = faulting.get();

  store::WriterOptions writer_options = reference.writer_options;
  writer_options.io.scrub_writes = true;
  writer_options.io.buffer_unsynced = true;
  writer_options.metrics = &metrics;
  store::Writer writer(std::move(faulting), writer_options);

  crawler::Crawler crawler(corpus);
  auto options = crawl_options(&writer, nullptr);
  options.metrics = &metrics;
  const auto health =
      crawler.crawl(corpus.size(), options, [](instrument::VisitLog&&) {});

  store::Error error;
  if (!writer.finish(&error)) {
    std::fprintf(stderr, "  faulty pack did not finish: %s\n",
                 error.to_string().c_str());
    return false;
  }
  bool ok = true;
  if (read_file(path) != reference.archive) {
    std::fprintf(stderr, "  faulty pack bytes differ from reference\n");
    ok = false;
  }
  const int quarantined = health.exclusions[static_cast<std::size_t>(
      fault::FailureClass::kStorageFailure)];
  if (quarantined != 0) {
    std::fprintf(stderr, "  %d sites lost to storage (expected 0)\n",
                 quarantined);
    ok = false;
  }
  if (!ledger_balances(*injector, metrics)) ok = false;
  for (int cls = 0; cls < fault::kIoFaultCount; ++cls) {
    *faults_injected += injector->injected(static_cast<fault::IoFault>(cls));
  }
  return ok;
}

/// Phase 2: crash after a mid-crawl checkpoint — the file holds the synced
/// prefix plus a torn, bit-flipped fragment of the next block — then resume
/// through a *still-faulting* sink to the byte-identical archive.
bool run_crash_resume(const corpus::Corpus& corpus, const Reference& reference,
                      const fault::IoFaultPlan& plan, std::uint64_t seed_index,
                      const std::filesystem::path& path) {
  const auto& checkpoint =
      reference.checkpoints[reference.checkpoints.size() / 2];
  if (checkpoint.archive_sites < 0) {
    std::fprintf(stderr, "  checkpoint carries no archive segment\n");
    return false;
  }
  const auto prefix_bytes =
      static_cast<std::size_t>(checkpoint.archive_bytes);

  // The crash artifact: decide_crash picks how much of the next block's
  // bytes the torn tail keeps and which of its bits rotted.
  const auto crash = plan.decide_crash(seed_index);
  std::string file_bytes = reference.archive.substr(0, prefix_bytes);
  const std::size_t remaining = reference.archive.size() - prefix_bytes;
  const auto torn_len = static_cast<std::size_t>(
      crash.cut * static_cast<double>(std::min<std::size_t>(remaining, 900)));
  std::string fragment = reference.archive.substr(prefix_bytes, torn_len);
  if (!fragment.empty()) {
    fragment[static_cast<std::size_t>(crash.flip % (fragment.size() * 8)) /
             8] ^= static_cast<char>(1u << (crash.flip % 8));
  }
  file_bytes += fragment;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << file_bytes;
    if (!out.good()) {
      std::fprintf(stderr, "  cannot stage crash artifact %s\n", path.c_str());
      return false;
    }
  }

  // Resume onto a faulting sink: walk_prefix discards the torn tail, the
  // adopting writer continues from the checkpoint's byte extent.
  store::Error error;
  auto prefix = store::Writer::walk_prefix(path.string(),
                                           checkpoint.archive_sites, &error);
  if (!prefix.has_value()) {
    std::fprintf(stderr, "  walk_prefix rejected the crash artifact: %s\n",
                 error.to_string().c_str());
    return false;
  }
  store::IoStatus status;
  auto file = store::FileSink::open(path.string(), /*append=*/true, &status);
  if (file == nullptr) {
    std::fprintf(stderr, "  cannot reopen %s: %s\n", path.c_str(),
                 status.to_string().c_str());
    return false;
  }
  obs::MetricsRegistry metrics;
  auto faulting = std::make_unique<store::FaultingSink>(
      std::move(file), plan, &metrics, prefix->bytes,
      /*first_op=*/1'000'000 + seed_index);
  store::FaultingSink* injector = faulting.get();

  store::WriterOptions writer_options = reference.writer_options;
  writer_options.io.scrub_writes = true;
  writer_options.io.buffer_unsynced = true;
  writer_options.metrics = &metrics;
  store::Writer writer(std::move(faulting), writer_options,
                       std::move(*prefix));

  crawler::Crawler crawler(corpus);
  auto options = crawl_options(&writer, nullptr);
  crawler.resume(checkpoint, options, [](instrument::VisitLog&&) {});
  if (!writer.finish(&error)) {
    std::fprintf(stderr, "  resumed pack did not finish: %s\n",
                 error.to_string().c_str());
    return false;
  }
  bool ok = true;
  if (read_file(path) != reference.archive) {
    std::fprintf(stderr, "  resumed archive differs from reference\n");
    ok = false;
  }
  if (!ledger_balances(*injector, metrics)) ok = false;
  return ok;
}

/// Phase 3: the recovered file re-verifies and reproduces Table 1 exactly.
bool run_analysis_check(const corpus::Corpus& corpus,
                        const Reference& reference,
                        const std::filesystem::path& path) {
  std::string table1;
  if (!table1_from_archive(corpus, read_file(path), &table1)) return false;
  if (table1 != reference.table1) {
    std::fprintf(stderr, "  Table 1 output diverged after recovery\n");
    return false;
  }
  return true;
}

}  // namespace

int main() {
  const corpus::CorpusParams params = [] {
    corpus::CorpusParams p;
    p.site_count = cli::env_int("CG_SITES", 400, 1);
    return p;
  }();
  const corpus::Corpus corpus(params);
  const int seeds = cli::env_int("CG_CHAOS_SEEDS", 20, 1, 10'000);
  bench::print_header("Storage chaos soak: pack/crash/resume under fault "
                      "injection", corpus);

  Reference reference;
  if (!build_reference(corpus, &reference)) return 1;
  if (reference.checkpoints.empty()) {
    std::fprintf(stderr, "error: crawl emitted no checkpoints (corpus too "
                 "small for interval %d?)\n", kCheckpointInterval);
    return 1;
  }
  std::printf("reference: %zu archive bytes, %zu checkpoints\n\n",
              reference.archive.size(), reference.checkpoints.size());

  const auto scratch = std::filesystem::temp_directory_path() /
                       "cg_bench_chaos.cgar";
  int failures = 0;
  std::int64_t total_injected = 0;
  for (int s = 0; s < seeds; ++s) {
    fault::IoFaultPlanParams plan_params;
    plan_params.seed += static_cast<std::uint64_t>(s) * kSeedStride;
    plan_params.op_fault_rate = 0.12;
    const fault::IoFaultPlan plan(plan_params);

    std::int64_t injected = 0;
    const bool pack_ok =
        run_faulty_pack(corpus, reference, plan, scratch, &injected);
    const bool resume_ok = run_crash_resume(
        corpus, reference, plan, static_cast<std::uint64_t>(s), scratch);
    const bool analysis_ok = run_analysis_check(corpus, reference, scratch);
    const bool ok = pack_ok && resume_ok && analysis_ok;
    failures += ok ? 0 : 1;
    total_injected += injected;
    std::printf("seed %2d (0x%016" PRIX64 "): %-4s  %5" PRId64
                " faults injected%s%s%s\n",
                s, plan_params.seed, ok ? "PASS" : "FAIL", injected,
                pack_ok ? "" : " [pack]", resume_ok ? "" : " [resume]",
                analysis_ok ? "" : " [analysis]");
  }
  std::filesystem::remove(scratch);

  std::printf("\n%d/%d seeds byte-identical; %" PRId64
              " faults injected and healed total\n",
              seeds - failures, seeds, total_injected);
  if (total_injected == 0) {
    std::fprintf(stderr, "error: the soak injected no faults — the chaos "
                 "plan is not exercising the healer\n");
    return 1;
  }
  std::printf("%s: chaos soak %s\n", failures == 0 ? "PASS" : "FAIL",
              failures == 0 ? "held the byte-identity contract"
                            : "found unrecovered corruption");
  return failures == 0 ? 0 : 1;
}
