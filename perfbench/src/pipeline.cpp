#include "pipeline.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/archive.h"
#include "analysis/fold.h"
#include "cookieguard/cookieguard.h"
#include "cookies/cookie_jar.h"
#include "corpus/corpus.h"
#include "crawler/crawler.h"
#include "crypto/crc32c.h"
#include "net/psl.h"
#include "net/url.h"
#include "obs/metrics.h"
#include "report/report.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "spans.h"
#include "store/byte_sink.h"
#include "store/reader.h"
#include "store/record_codec.h"
#include "store/writer.h"

namespace perfbench {
namespace {

using namespace cg;

// ---------------------------------------------------------------------------
// Inputs. The crawl's inputs are the paper's: its corpus (default seed) and
// its default fault plan, the same for every run, like the fixed site list
// a measurement crawl revisits. --seed draws the query stream. A seeded
// fault plan would change which of the most popular sites fail, and their
// near-empty logs move the per-site p50 by a quarter between seeds.

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

corpus::CorpusParams corpus_params(int sites) {
  corpus::CorpusParams params;
  params.site_count = sites;
  return params;
}

serve::WorkloadSpec query_spec(std::uint64_t seed, int sites) {
  serve::WorkloadSpec spec;
  spec.site_count = sites;
  spec.seed = mix64(seed ^ 0x5EEDCA5EULL);
  return spec;
}

std::uint64_t fnv64(std::string_view bytes,
                    std::uint64_t h = 1469598103934665603ULL) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Small statistics helpers.

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string fmt(const char* format, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

// ---------------------------------------------------------------------------
// Workload configuration.

struct WorkloadConfig {
  policy::PolicyKind policy = policy::PolicyKind::kNone;
  bool guarded = false;
  bool serve_measured = false;  // serve_zipf: the serve loop is measured
};

std::optional<WorkloadConfig> config_for(const std::string& name) {
  if (name == "crawl_pack") return WorkloadConfig{};
  if (name == "crawl_guarded") {
    return WorkloadConfig{policy::PolicyKind::kCookieGuard, true, false};
  }
  if (name == "serve_zipf") {
    return WorkloadConfig{policy::PolicyKind::kNone, false, true};
  }
  return std::nullopt;
}

store::ArchivePolicy archive_policy(policy::PolicyKind kind) {
  return kind == policy::PolicyKind::kCookieGuard
             ? store::ArchivePolicy::kCookieGuard
             : store::ArchivePolicy::kNone;
}

// ---------------------------------------------------------------------------
// What the probes and passes accumulate.

struct ProbeCounts {
  std::int64_t sites = 0;
  std::int64_t records = 0;
  std::int64_t blocks = 0;
  std::int64_t block_bytes = 0;
  std::int64_t cookie_sets = 0;
  std::int64_t cookie_reads = 0;
  std::int64_t url_parses = 0;
  std::int64_t etld_calls = 0;
  std::int64_t decodes = 0;
  std::int64_t wait_ns = 0;
  std::uint64_t sink_checksum = 0;  // keeps probe results observable
};

struct CrawlPass {
  double crawl_s = 0;    // Crawler::crawl start to Writer::finish end
  std::vector<double> analyze_s;  // each Reader::from_buffer + analyze
  int sites = 0;
  std::string archive;
  crawler::CrawlHealth health;
};

/// Length of one measured serve window.
constexpr double kWindowSeconds = 1.5;

class Pipeline {
 public:
  Pipeline(const RunOptions& options, WorkloadConfig config)
      : options_(options), config_(config) {
    if (options_.trace) recorder_ = std::make_unique<SpanRecorder>();
  }

  RunResult run();

 private:
  SpanRecorder* rec() { return recorder_.get(); }
  void fail(const std::string& check) {
    result_.correct = false;
    result_.failed_checks.push_back(check);
  }

  void make_corpus(int rep);
  void probe_visit(const instrument::VisitLog& log,
                   analysis::SiteSummary& live);
  void record_pass(CrawlPass& pass) {
    crawl_rate_.push_back(pass.sites / pass.crawl_s);
    for (double s : pass.analyze_s) analyze_rate_.push_back(pass.sites / s);
    archive_ = std::move(pass.archive);
  }
  std::optional<CrawlPass> crawl_pass(int pass, bool probes);
  void check_pass(const CrawlPass& pass, const analysis::Analyzer& analyzer);
  std::unique_ptr<serve::Server> load_server(const std::string& archive,
                                             double* load_s);
  void timed_setup(int rep);
  void run_crawl_workload();
  void run_serve_workload();
  void start_serving();
  void serve_window(double seconds);
  void finish_serving();
  void serve_traced(double budget_s);
  void crawl_layer_metrics();
  void trace_summary();
  void add(const std::string& name, double value, const std::string& unit) {
    result_.metrics.push_back({name, value, unit});
  }

  const RunOptions& options_;
  const WorkloadConfig config_;
  std::unique_ptr<SpanRecorder> recorder_;
  RunResult result_;

  std::unique_ptr<corpus::Corpus> corpus_;
  std::vector<std::unique_ptr<cookieguard::CookieGuard>> guards_;

  // End-to-end samples.
  std::vector<double> setup_s_;
  std::vector<double> crawl_rate_;
  std::vector<double> analyze_rate_;
  std::vector<double> load_s_;
  std::string archive_;  // the last pass's archive
  std::optional<std::uint64_t> archive_hash_;
  std::unique_ptr<analysis::Analyzer> batch_;  // analyze of archive_
  std::unique_ptr<serve::Server> server_;      // serves archive_

  // Serve loop state.
  struct ServeWindow {
    double qps = 0;
    double site_p50_us = 0;
    double site_p99_us = 0;
    double aggregate_p99_us = 0;
  };
  std::vector<serve::Query> stream_;  // the measured query stream
  std::uint64_t next_query_ = 0;
  std::vector<ServeWindow> windows_;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> answered_;
  std::int64_t serve_errors_ = 0;
  std::int64_t site_samples_ = 0;
  std::int64_t aggregate_samples_ = 0;

  // Traced-run accumulators.
  ProbeCounts probes_;
  obs::MetricsRegistry metrics_;
  obs::MetricsRegistry scheduler_;
  int traced_passes_ = 0;
  std::int64_t traced_sites_ = 0;
  std::int64_t jar_at_finish_ = 0;
  cookieguard::CookieGuard::Stats guard_traced_;
  std::int64_t measured_from_ns_ = 0;
  std::int64_t measured_to_ns_ = 0;
  double overhead_ratio_ = 0;
  std::int64_t serve_hits_ = 0;
  std::int64_t serve_misses_ = 0;
  std::int64_t serve_evictions_ = 0;
  std::vector<double> hit_s_;
  std::vector<double> miss_s_;
  std::vector<double> aggregate_s_;
};

cookieguard::CookieGuard::Stats guard_totals(
    const std::vector<std::unique_ptr<cookieguard::CookieGuard>>& guards) {
  cookieguard::CookieGuard::Stats total;
  for (const auto& guard : guards) total.merge(guard->stats());
  return total;
}

void Pipeline::make_corpus(int rep) {
  ScopedSpan span(rec(), "corpus.generate", rep);
  corpus_ = std::make_unique<corpus::Corpus>(
      corpus_params(options_.sites));
}

/// The traced run's probes for one delivered log: its block encode and
/// CRC, its fold and merge, a replay of its script cookie writes and reads
/// into a fresh jar, and every request URL through the URL parser and the
/// eTLD+1 lookup.
void Pipeline::probe_visit(const instrument::VisitLog& log,
                           analysis::SiteSummary& live) {
  SpanRecorder* r = rec();
  const entities::EntityMap& entities = corpus_->entities();
  ++probes_.sites;
  probes_.records += static_cast<std::int64_t>(
      log.script_sets.size() + log.http_sets.size() + log.reads.size() +
      log.requests.size() + log.dom_mods.size() + log.includes.size());

  std::string block;
  {
    ScopedSpan s(r, "store.encode", log.rank);
    block = store::encode_site_block(log);
  }
  ++probes_.blocks;
  probes_.block_bytes += static_cast<std::int64_t>(block.size());
  {
    ScopedSpan s(r, "crypto.crc32c", log.rank);
    probes_.sink_checksum ^= crypto::crc32c(block);
  }
  analysis::SiteSummary folded;
  {
    ScopedSpan s(r, "analysis.fold", log.rank);
    folded = analysis::fold_visit(entities, {}, log);
  }
  {
    ScopedSpan s(r, "analysis.merge", log.rank);
    live.merge(std::move(folded));
  }

  std::vector<std::string> lines;
  lines.reserve(log.script_sets.size());
  for (const auto& set : log.script_sets) {
    lines.push_back(set.cookie_name + "=" + set.value);
  }
  const auto page = net::Url::parse("https://" + log.site_host + "/");
  if (page) {
    cookies::CookieJar jar;
    {
      ScopedSpan s(r, "cookies.set", log.rank);
      for (std::size_t i = 0; i < lines.size(); ++i) {
        jar.set_from_string(*page, lines[i], log.script_sets[i].time);
      }
    }
    std::size_t read_bytes = 0;
    {
      ScopedSpan s(r, "cookies.read", log.rank);
      for (const auto& read : log.reads) {
        read_bytes += jar.document_cookie_string(*page, read.time).size();
      }
    }
    probes_.cookie_sets += static_cast<std::int64_t>(lines.size());
    probes_.cookie_reads += static_cast<std::int64_t>(log.reads.size());
    probes_.sink_checksum += read_bytes + jar.size();
  }

  std::vector<net::Url> urls;
  urls.reserve(log.requests.size());
  {
    ScopedSpan s(r, "net.url_parse", log.rank);
    for (const auto& request : log.requests) {
      if (auto url = net::Url::parse(request.url)) {
        urls.push_back(std::move(*url));
      }
    }
  }
  std::size_t etld_bytes = 0;
  {
    ScopedSpan s(r, "net.etld1", log.rank);
    for (const auto& url : urls) {
      etld_bytes += net::etld_plus_one(url.host()).size();
    }
  }
  probes_.url_parses += static_cast<std::int64_t>(log.requests.size());
  probes_.etld_calls += static_cast<std::int64_t>(urls.size());
  probes_.sink_checksum += etld_bytes;
}

/// One crawl -> pack -> reopen -> analyze pass over the whole corpus. With
/// `probes`, the sink drives the per-layer probes with each delivered log
/// and every site block is decoded again through Reader::visit_at.
std::optional<CrawlPass> Pipeline::crawl_pass(int pass, bool probes) {
  ScopedSpan pass_span(probes ? rec() : nullptr, "crawl_pass", pass);
  SpanRecorder* r = probes ? rec() : nullptr;
  crawler::Crawler crawler(*corpus_);
  crawler::CrawlOptions options;
  options.threads = options_.threads;
  options.policy = config_.policy;
  if (config_.guarded) {
    options.extension_factory =
        [this](int worker) -> std::vector<browser::Extension*> {
      return {guards_[static_cast<std::size_t>(worker)].get()};
    };
  }
  obs::MetricsRegistry pass_metrics;
  obs::MetricsRegistry pass_scheduler;
  if (probes) {
    options.metrics = &pass_metrics;
    options.scheduler_metrics = &pass_scheduler;
  }

  store::WriterOptions writer_options;
  writer_options.corpus_seed = corpus_->params().seed;
  const fault::FaultPlan plan = crawler.plan_for(options);
  writer_options.fault_seed = plan.enabled() ? plan.params().seed : 0;
  writer_options.policy = archive_policy(config_.policy);
  auto sink_owner = std::make_unique<store::BufferSink>();
  store::BufferSink* sink = sink_owner.get();
  store::Writer writer(std::move(sink_owner), writer_options);
  options.archive = &writer;

  const entities::EntityMap& entities = corpus_->entities();
  analysis::SiteSummary live;  // probe fold of the delivered logs
  std::int64_t last_delivery_ns = -1;
  const auto probe_sink = [&](instrument::VisitLog&& log) {
    const std::int64_t arrived = r->now_ns();
    if (last_delivery_ns >= 0) probes_.wait_ns += arrived - last_delivery_ns;
    probe_visit(log, live);
    last_delivery_ns = r->now_ns();
  };

  CrawlPass out;
  out.sites = corpus_->size();
  store::Error error;
  const auto crawl_start = Clock::now();
  {
    ScopedSpan s(r, "crawler.crawl", pass);
    if (probes) {
      out.health = crawler.crawl(corpus_->size(), options, probe_sink);
    } else {
      out.health = crawler.crawl(corpus_->size(), options,
                                 [](instrument::VisitLog&&) {});
    }
  }
  bool finished = false;
  {
    ScopedSpan s(r, "store.finish", pass);
    finished = writer.finish(&error);
  }
  out.crawl_s = seconds_between(crawl_start, Clock::now());
  if (!finished) {
    fail("pack: Writer::finish failed (" + error.to_string() + ")");
    return std::nullopt;
  }
  out.archive = sink->bytes();
  if (options_.corrupt_archive && out.archive.size() > 64) {
    out.archive[out.archive.size() / 2] ^= 0x5A;
  }

  // Crawl ops: every site; a quarantined site failed.
  result_.attempted += out.sites;
  result_.failed += out.health.exclusions[static_cast<int>(
      fault::FailureClass::kStorageFailure)];

  // Reopen, validate and fold: three times untraced (the rate is taken
  // over all of them), once when the probes run. Decode ops: every block.
  std::optional<store::Reader> reader;
  std::unique_ptr<analysis::Analyzer> analyzer;
  bool analyzed = false;
  for (int rep = 0; rep < (probes ? 1 : 3); ++rep) {
    const auto analyze_start = Clock::now();
    {
      ScopedSpan s(r, "store.open", pass);
      reader = store::Reader::from_buffer(out.archive, &error);
    }
    analyzer = std::make_unique<analysis::Analyzer>(entities);
    if (reader) {
      ScopedSpan s(r, "analysis.analyze_archive", pass);
      analyzed = analysis::analyze_archive(*reader, *analyzer, &error);
    }
    out.analyze_s.push_back(seconds_between(analyze_start, Clock::now()));
    const int blocks = reader ? reader->site_count() : out.sites;
    result_.attempted += blocks;
    if (!analyzed) {
      result_.failed +=
          std::max(1, blocks - analyzer->totals().sites_crawled);
      break;
    }
  }
  if (!reader) {
    fail("archive: reopen rejected (" + error.to_string() + ")");
    return std::nullopt;
  }
  if (!analyzed) {
    fail("archive: analyze_archive failed (" + error.to_string() + ")");
    return std::nullopt;
  }

  if (probes) {
    for (int i = 0; i < reader->site_count(); ++i) {
      ScopedSpan s(r, "store.decode", i);
      if (!reader->visit_at(static_cast<std::size_t>(i), &error)) {
        fail("archive: visit_at failed at " + std::to_string(i));
        break;
      }
    }
    probes_.decodes += reader->site_count();
    metrics_.merge(pass_metrics);
    scheduler_.merge(pass_scheduler);
    ++traced_passes_;
    traced_sites_ += out.sites;
    jar_at_finish_ += pass_metrics.counter("instrument.jar_cookies_at_finish");
    // The live fold of delivered logs must equal the archive's fold.
    analysis::Analyzer live_analyzer(entities);
    live_analyzer.apply(std::move(live));
    if (report::summary_to_json(live_analyzer, 10).dump() !=
        report::summary_to_json(*analyzer, 10).dump()) {
      fail("analysis: live fold differs from the archive fold");
    }
  }
  check_pass(out, *analyzer);
  batch_ = std::move(analyzer);
  return out;
}

void Pipeline::check_pass(const CrawlPass& pass,
                          const analysis::Analyzer& analyzer) {
  if (analyzer.totals().sites_complete != pass.health.sites_retained) {
    fail("analysis: " + std::to_string(analyzer.totals().sites_complete) +
         " sites retained in the summary, CrawlHealth says " +
         std::to_string(pass.health.sites_retained));
  }
  if (analyzer.totals().sites_crawled != pass.sites) {
    fail("archive: " + std::to_string(analyzer.totals().sites_crawled) +
         " sites decoded of " + std::to_string(pass.sites));
  }
  // Every pass crawls the same corpus: the archive must not change.
  const std::uint64_t hash = fnv64(pass.archive);
  if (archive_hash_ && *archive_hash_ != hash) {
    fail("pack: archive differs between passes over the same corpus");
  }
  archive_hash_ = hash;
}

std::unique_ptr<serve::Server> Pipeline::load_server(
    const std::string& archive, double* load_s) {
  ScopedSpan span(rec(), "serve.load");
  serve::ServerConfig config;
  config.cache.max_entries =
      static_cast<std::size_t>(std::max(16, options_.sites / 4));
  const auto start = Clock::now();
  store::Error error;
  auto reader = store::Reader::from_buffer(archive, &error);
  std::unique_ptr<serve::Server> server;
  if (reader) {
    std::vector<store::Reader> readers;
    readers.push_back(std::move(*reader));
    server = serve::Server::from_readers(std::move(readers), config, &error);
  }
  *load_s = seconds_between(start, Clock::now());
  ++result_.attempted;
  if (server == nullptr) {
    ++result_.failed;
    fail("serve: server load failed (" + error.to_string() + ")");
    return nullptr;
  }
  // The load-time aggregate must be the batch analysis, byte for byte.
  if (batch_ != nullptr) {
    analysis::Analyzer from_server(corpus_->entities());
    from_server.apply(analysis::SiteSummary(server->aggregate()));
    if (report::summary_to_json(from_server, 10).dump() !=
        report::summary_to_json(*batch_, 10).dump()) {
      fail("serve: load-time aggregate differs from batch analyze_archive");
    }
  }
  return server;
}

bool is_error_answer(const std::string& answer) {
  return answer.rfind("{\"error\":", 0) == 0;
}

/// Warms server_'s cache with a 1-client pass over the first 5 x sites
/// queries of the seeded stream, then keeps the rest of the stream for the
/// measured queries.
void Pipeline::start_serving() {
  serve::WorkloadGenerator generator(query_spec(options_.seed, options_.sites));
  for (const auto& query :
       generator.generate(static_cast<std::size_t>(options_.sites) * 5)) {
    (void)server_->handle_text(query);
  }
  stream_ = generator.generate(1 << 17);
}

/// One measured window: 2 clients in a closed loop for `seconds`, each
/// taking the next query of the stream (wrapping around it) as soon as its
/// last answer is back. The serve metrics are medians over windows, and
/// crawl_* interleave their windows with the crawl passes, so the windows
/// sample the whole run rather than one stretch of it.
void Pipeline::serve_window(double seconds) {
  struct Answer {
    std::uint32_t index;
    bool site;
    bool error;
    double latency_s;
    std::uint64_t hash;
  };
  constexpr int kClients = 2;
  std::vector<std::vector<Answer>> answers(kClients);
  std::atomic<std::uint64_t> next{next_query_};
  std::atomic<bool> stop{false};
  const serve::Server& server = *server_;
  const serve::BlockCache::Stats before = server.cache().stats();
  const auto start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      auto& mine = answers[static_cast<std::size_t>(c)];
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t i =
            next.fetch_add(1, std::memory_order_relaxed) % stream_.size();
        const serve::Query& query = stream_[i];
        const auto t0 = Clock::now();
        const std::string answer = server.handle_text(query);
        mine.push_back({static_cast<std::uint32_t>(i),
                        query.kind == serve::QueryKind::kSite,
                        is_error_answer(answer),
                        seconds_between(t0, Clock::now()), fnv64(answer)});
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& worker : workers) worker.join();
  const double wall_s = seconds_between(start, Clock::now());
  next_query_ = next.load();
  const serve::BlockCache::Stats after = server.cache().stats();
  serve_hits_ += after.hits - before.hits;
  serve_misses_ += after.misses - before.misses;
  serve_evictions_ += after.evictions - before.evictions;

  std::vector<double> site;
  std::vector<double> aggregate;
  for (const auto& mine : answers) {
    for (const Answer& a : mine) {
      (a.site ? site : aggregate).push_back(a.latency_s);
      answered_.emplace_back(a.index, a.hash);
      if (a.error) ++serve_errors_;
    }
  }
  site_samples_ += static_cast<std::int64_t>(site.size());
  aggregate_samples_ += static_cast<std::int64_t>(aggregate.size());
  windows_.push_back(
      {static_cast<double>(site.size() + aggregate.size()) / wall_s,
       percentile(site, 0.50) * 1e6, percentile(site, 0.99) * 1e6,
       percentile(aggregate, 0.99) * 1e6});
}

/// The serve checks and metrics after the last window: every answer of
/// the 2-client windows must hash like a 1-client replay of its query.
void Pipeline::finish_serving() {
  std::unordered_map<std::string, std::uint64_t> replay;
  std::int64_t mismatches = 0;
  for (const auto& [index, hash] : answered_) {
    const serve::Query& query = stream_[index];
    const std::string key = serve::to_text(query);
    auto it = replay.find(key);
    if (it == replay.end()) {
      it = replay.emplace(key, fnv64(server_->handle_text(query))).first;
    }
    if (it->second != hash) ++mismatches;
  }
  if (mismatches > 0) {
    fail("serve: " + std::to_string(mismatches) +
         " answers of the 2-client run differ from the 1-client replay");
  }
  if (serve_errors_ > 0) {
    fail("serve: " + std::to_string(serve_errors_) + " error answers");
  }
  result_.attempted += static_cast<std::int64_t>(answered_.size());
  result_.failed += serve_errors_;

  std::vector<double> qps, p50, p99, aggregate_p99;
  for (const ServeWindow& w : windows_) {
    qps.push_back(w.qps);
    p50.push_back(w.site_p50_us);
    p99.push_back(w.site_p99_us);
    aggregate_p99.push_back(w.aggregate_p99_us);
  }
  add("serve_qps", median(qps), "1/s");
  add("site_query_p50_us", median(p50), "us");
  add("site_query_p99_us", median(p99), "us");
  add("aggregate_query_p99_us", median(aggregate_p99), "us");

  std::string per_window = "serve windows (qps/p50/p99):";
  for (const ServeWindow& w : windows_) {
    per_window += fmt(" %.0f/%.0f/%.0f", w.qps, w.site_p50_us, w.site_p99_us);
  }
  result_.notes.push_back(per_window);
  const double hits = static_cast<double>(serve_hits_);
  const double misses = static_cast<double>(serve_misses_);
  result_.notes.push_back(
      "serve: " + std::to_string(answered_.size()) + " queries by 2 clients in " +
      std::to_string(windows_.size()) + " windows; " +
      std::to_string(site_samples_) + " per-site and " +
      std::to_string(aggregate_samples_) +
      " aggregate samples (a window's p99 has 1% of its samples beyond it)");
  result_.notes.push_back(
      fmt("serve cache: hit ratio %.3f (%.0f hits, %.0f misses), ",
          ratio(hits, hits + misses), hits, misses) +
      std::to_string(serve_evictions_) + " evictions, " +
      std::to_string(server_->cache().config().max_entries) +
      " entries for " + std::to_string(options_.sites) + " sites");
}

/// The traced replay: one client, so a query's cache outcome is the change
/// in BlockCache::stats() across it. An untraced segment of the stream
/// first gives the reference for trace.overhead_ratio; the traced segment
/// replays the same number of the queries that follow it.
void Pipeline::serve_traced(double budget_s) {
  serve::Server& server = *server_;
  std::uint64_t sink = 0;
  std::size_t reference = 0;
  const auto ref_start = Clock::now();
  const auto ref_deadline =
      ref_start + std::chrono::duration<double>(budget_s / 2);
  while (Clock::now() < ref_deadline && reference < stream_.size() / 2) {
    sink ^= fnv64(server.handle_text(stream_[reference]));
    ++reference;
  }
  const double ref_s = seconds_between(ref_start, Clock::now());

  SpanRecorder* r = rec();
  const serve::BlockCache::Stats before = server.cache().stats();
  const std::int64_t from = r->now_ns();
  const auto traced_start = Clock::now();
  for (std::size_t i = reference; i < 2 * reference; ++i) {
    const serve::Query& query = stream_[i];
    const bool site = query.kind == serve::QueryKind::kSite;
    const serve::BlockCache::Stats pre = server.cache().stats();
    ScopedSpan span(r, site ? "serve.site" : "serve.aggregate",
                    static_cast<std::int64_t>(i));
    const std::string answer = server.handle_text(query);
    span.close();
    const serve::BlockCache::Stats post = server.cache().stats();
    const double took = span.seconds();
    ++result_.attempted;
    if (is_error_answer(answer)) {
      ++result_.failed;
      fail("serve: error answer for " + serve::to_text(query));
    }
    sink ^= fnv64(answer);
    if (!site) {
      aggregate_s_.push_back(took);
    } else if (post.hits > pre.hits) {
      hit_s_.push_back(took);
    } else if (post.misses > pre.misses) {
      miss_s_.push_back(took);
    }
  }
  const double traced_s = seconds_between(traced_start, Clock::now());
  const serve::BlockCache::Stats after = server.cache().stats();
  serve_hits_ = after.hits - before.hits;
  serve_misses_ = after.misses - before.misses;
  serve_evictions_ = after.evictions - before.evictions;
  if (config_.serve_measured) {
    measured_from_ns_ = from;
    measured_to_ns_ = r->now_ns();
    overhead_ratio_ = ratio(traced_s, ref_s);
  }
  result_.notes.push_back(
      "serve (traced, 1 client): " + std::to_string(reference) +
      " queries untraced in " +
      fmt("%.3f s, traced in %.3f s", ref_s, traced_s) + "; " +
      std::to_string(hit_s_.size()) + " hits, " +
      std::to_string(miss_s_.size()) + " misses, " +
      std::to_string(aggregate_s_.size()) + " aggregates");
  probes_.sink_checksum += sink;
}

void Pipeline::crawl_layer_metrics() {
  const double sites = static_cast<double>(traced_sites_);
  const double passes = std::max(1, traced_passes_);
  const auto sum = [&](const char* name) {
    double total = 0;
    for (double d : rec()->durations(name)) total += d;
    return total;
  };
  const std::vector<double> corpus_s = rec()->durations("corpus.generate");
  add("corpus.generate_s", median(corpus_s), "s");
  add("crawler.wait_s", static_cast<double>(probes_.wait_ns) * 1e-9 / passes,
      "s");
  add("crawler.attempts_per_site",
      ratio(static_cast<double>(metrics_.counter("crawl.attempts")), sites),
      "ratio");
  add("crawler.retained_per_attempt",
      ratio(static_cast<double>(metrics_.counter("crawl.sites_retained")),
            static_cast<double>(metrics_.counter("crawl.attempts"))),
      "ratio");
  add("runtime.tasks_stolen",
      static_cast<double>(scheduler_.counter("scheduler.tasks_stolen")) /
          passes,
      "count");
  add("runtime.merge_blocked_pushes",
      static_cast<double>(
          scheduler_.counter("scheduler.merge_blocked_pushes")) /
          passes,
      "count");
  add("runtime.merge_max_occupancy",
      static_cast<double>(scheduler_.gauge("scheduler.merge_max_occupancy")),
      "count");
  add("browser.navigations_per_site",
      ratio(static_cast<double>(metrics_.counter("browser.navigations")),
            sites),
      "ratio");
  add("webplat.tasks_per_site",
      ratio(static_cast<double>(metrics_.counter("eventloop.tasks")), sites),
      "ratio");
  add("cookies.set_ns",
      ratio(sum("cookies.set") * 1e9,
            static_cast<double>(probes_.cookie_sets)),
      "ns");
  add("cookies.read_ns",
      ratio(sum("cookies.read") * 1e9,
            static_cast<double>(probes_.cookie_reads)),
      "ns");
  add("cookies.jar_size_at_finish",
      ratio(static_cast<double>(jar_at_finish_), sites), "count");
  add("net.url_parse_ns",
      ratio(sum("net.url_parse") * 1e9,
            static_cast<double>(probes_.url_parses)),
      "ns");
  add("net.etld1_ns",
      ratio(sum("net.etld1") * 1e9, static_cast<double>(probes_.etld_calls)),
      "ns");
  add("policy.writes_blocked",
      static_cast<double>(metrics_.counter("policy.writes_blocked")) / passes,
      "count");
  add("policy.reads_blocked",
      static_cast<double>(metrics_.counter("policy.reads_blocked")) / passes,
      "count");
  add("cookieguard.cookies_hidden",
      static_cast<double>(guard_traced_.cookies_hidden) / passes, "count");
  add("cookieguard.writes_blocked",
      static_cast<double>(guard_traced_.writes_blocked) / passes, "count");
  add("cookieguard.reads_filtered",
      static_cast<double>(guard_traced_.reads_filtered) / passes, "count");
  add("cookieguard.inline_denied",
      static_cast<double>(guard_traced_.inline_denied) / passes, "count");
  add("instrument.records_per_site",
      ratio(static_cast<double>(probes_.records),
            static_cast<double>(probes_.sites)),
      "count");
  add("store.encode_us",
      ratio(sum("store.encode") * 1e6, static_cast<double>(probes_.blocks)),
      "us");
  add("store.block_bytes",
      ratio(static_cast<double>(probes_.block_bytes),
            static_cast<double>(probes_.blocks)),
      "bytes");
  add("store.open_s", median(rec()->durations("store.open")), "s");
  add("store.decode_us",
      ratio(sum("store.decode") * 1e6, static_cast<double>(probes_.decodes)),
      "us");
  add("crypto.crc32c_mb_per_s",
      ratio(static_cast<double>(probes_.block_bytes) * 1e-6,
            sum("crypto.crc32c")),
      "MB/s");
  add("analysis.fold_us",
      ratio(sum("analysis.fold") * 1e6, static_cast<double>(probes_.sites)),
      "us");
  add("analysis.merge_us",
      ratio(sum("analysis.merge") * 1e6, static_cast<double>(probes_.sites)),
      "us");
}

/// Layer self times and span coverage over the measured phase.
void Pipeline::trace_summary() {
  const std::int64_t from_ns = measured_from_ns_;
  const std::int64_t to_ns = measured_to_ns_;
  const double wall_s = static_cast<double>(to_ns - from_ns) * 1e-9;
  const double coverage = rec()->layer_coverage(from_ns, to_ns);
  result_.notes.push_back(
      fmt("trace: measured wall %.3f s, layer spans cover %.1f%%, "
          "overhead ratio %.3f",
          wall_s, 100.0 * coverage, overhead_ratio_));
  if (coverage < 0.9) {
    fail(fmt("trace: layer spans cover %.1f%% of measured wall time (< 90%%)",
             100.0 * coverage));
  }
  static const char* const kLayers[] = {"corpus", "crawler",  "store",
                                        "crypto", "analysis", "cookies",
                                        "net",    "serve"};
  const auto totals = rec()->layer_totals(from_ns, to_ns);
  for (const char* layer : kLayers) {
    const auto it = totals.find(layer);
    const SpanRecorder::LayerTotals t =
        it == totals.end() ? SpanRecorder::LayerTotals{} : it->second;
    add(std::string(layer) + ".self_s", t.self_s, "s");
    result_.notes.push_back(
        std::string("  layer ") + layer +
        fmt(": self %.4f s (%.1f%% of measured wall), ", t.self_s,
            100.0 * ratio(t.self_s, wall_s)) +
        std::to_string(t.count) + " spans");
  }
  add("trace.span_coverage", coverage, "ratio");
  add("trace.overhead_ratio", overhead_ratio_, "ratio");
}

void Pipeline::timed_setup(int rep) {
  ScopedSpan span(rec(), "setup", rep);
  const auto start = Clock::now();
  make_corpus(rep);
  setup_s_.push_back(seconds_between(start, Clock::now()));
}

/// crawl_*: whole-corpus crawl -> pack -> analyze passes fill the measured
/// time. Untraced, each pass is followed by two server loads of its archive
/// and a serve window; set-up (corpus generation) runs three times first
/// and once more before each later pass, so every metric's samples spread
/// over the whole run.
void Pipeline::run_crawl_workload() {
  for (int rep = 0; rep < 3; ++rep) timed_setup(rep);
  const bool trace = options_.trace;
  const auto phase_start = Clock::now();
  int pass_index = 0;
  // The traced run crawls once untraced as the overhead reference.
  double untraced_s = 0;
  if (trace) {
    auto pass = crawl_pass(pass_index++, false);
    if (pass) untraced_s = pass->crawl_s + pass->analyze_s.front();
    measured_from_ns_ = rec()->now_ns();
  }
  const auto guards_before = guard_totals(guards_);
  std::vector<double> traced_s;
  while (result_.correct) {
    if (!trace && pass_index > 0) timed_setup(pass_index + 2);
    auto pass = crawl_pass(pass_index++, trace);
    if (!pass) break;
    traced_s.push_back(pass->crawl_s + pass->analyze_s.front());
    record_pass(*pass);
    if (!trace) {
      for (int load = 0; load < 2; ++load) {
        double load_s = 0;
        auto server = load_server(archive_, &load_s);
        if (server == nullptr) return;
        load_s_.push_back(load_s);
        if (server_ == nullptr) {
          server_ = std::move(server);
          start_serving();
        }
      }
      serve_window(kWindowSeconds);
    }
    const double elapsed = seconds_between(phase_start, Clock::now());
    const int done = static_cast<int>(crawl_rate_.size());
    if (elapsed >= options_.seconds && done >= (trace ? 1 : 3)) break;
  }
  if (!result_.correct) return;
  if (!trace) {
    finish_serving();
    return;
  }
  measured_to_ns_ = rec()->now_ns();
  const auto guards_after = guard_totals(guards_);
  guard_traced_.cookies_hidden =
      guards_after.cookies_hidden - guards_before.cookies_hidden;
  guard_traced_.writes_blocked =
      guards_after.writes_blocked - guards_before.writes_blocked;
  guard_traced_.reads_filtered =
      guards_after.reads_filtered - guards_before.reads_filtered;
  guard_traced_.inline_denied =
      guards_after.inline_denied - guards_before.inline_denied;
  overhead_ratio_ = ratio(median(traced_s), untraced_s);

  // The serve layer's per-layer numbers on crawl_* come from a traced tail.
  ScopedSpan span(rec(), "serve");
  double load_s = 0;
  server_ = load_server(archive_, &load_s);
  if (server_ == nullptr) return;
  start_serving();
  serve_traced(std::max(2.0, 0.4 * options_.seconds));
}

/// serve_zipf: set-up is corpus generation, the crawl_pack crawl into an
/// in-memory archive, its batch analysis and the server load, five times;
/// those are also serve_zipf's samples of the crawl, analyze and load
/// metrics. Then the measured closed loop, in windows.
void Pipeline::run_serve_workload() {
  for (int rep = 0; rep < 5 && result_.correct; ++rep) {
    ScopedSpan span(rec(), "setup", rep);
    const auto start = Clock::now();
    make_corpus(rep);
    // In the traced run the set-up crawls carry the crawl probes.
    auto pass = crawl_pass(rep, options_.trace);
    if (!pass) return;
    record_pass(*pass);
    double load_s = 0;
    server_.reset();
    server_ = load_server(archive_, &load_s);
    if (server_ == nullptr) return;
    load_s_.push_back(load_s);
    setup_s_.push_back(seconds_between(start, Clock::now()));
  }
  if (!result_.correct) return;
  ScopedSpan span(rec(), "serve");
  start_serving();
  if (options_.trace) {
    serve_traced(options_.seconds);
    return;
  }
  const long windows =
      std::max(1L, std::lround(options_.seconds / kWindowSeconds));
  for (long w = 0; w < windows; ++w) serve_window(kWindowSeconds);
  finish_serving();
}

RunResult Pipeline::run() {
  const auto run_start = Clock::now();
  const int threads = options_.threads;
  for (int w = 0; w < (config_.guarded ? threads : 0); ++w) {
    guards_.push_back(std::make_unique<cookieguard::CookieGuard>());
  }

  if (config_.serve_measured) {
    run_serve_workload();
  } else {
    run_crawl_workload();
  }

  // CookieGuard must act on crawl_guarded and only there.
  const auto guards = guard_totals(guards_);
  const std::uint64_t guard_actions = guards.cookies_hidden +
                                      guards.writes_blocked +
                                      guards.reads_filtered +
                                      guards.inline_denied;
  if (result_.correct && config_.guarded && guard_actions == 0) {
    fail("cookieguard: no reads filtered or writes blocked on crawl_guarded");
  }
  if (!config_.guarded && (guard_actions != 0 ||
                           metrics_.counter("cookieguard.cookies_hidden") != 0)) {
    fail("cookieguard: counts are nonzero on an unguarded crawl");
  }

  const double run_s = seconds_between(run_start, Clock::now());
  result_.notes.insert(
      result_.notes.begin(),
      fmt("run: %.2f s wall; %.0f crawl passes, %.0f server loads",
          run_s, static_cast<double>(crawl_rate_.size()),
          static_cast<double>(load_s_.size())) +
          ", " + std::to_string(options_.sites) + " sites, " +
          std::to_string(threads) + " crawl threads");

  std::string rates = "crawl sites/s per pass:";
  for (double rate : crawl_rate_) rates += fmt(" %.0f", rate);
  rates += "; analyze sites/s:";
  for (double rate : analyze_rate_) rates += fmt(" %.0f", rate);
  result_.notes.push_back(rates);
  if (!options_.trace) {
    add("setup_s", median(setup_s_), "s");
    add("crawl_sites_per_s", median(crawl_rate_), "sites/s");
    add("analyze_sites_per_s", median(analyze_rate_), "sites/s");
    add("archive_bytes_per_site",
        ratio(static_cast<double>(archive_.size()), options_.sites),
        "bytes/site");
    add("server_load_s", median(load_s_), "s");
    add("peak_rss_mib", peak_rss_mib(), "MiB");
    // error_ratio is carried by attempted/failed; print it for people.
    result_.notes.push_back(
        fmt("error_ratio: %.6f (%.0f failed of %.0f attempted)",
            ratio(static_cast<double>(result_.failed),
                  static_cast<double>(result_.attempted)),
            static_cast<double>(result_.failed),
            static_cast<double>(result_.attempted)));
    return result_;
  }

  if (result_.correct) {
    crawl_layer_metrics();
    add("serve.site_hit_us", median(hit_s_) * 1e6, "us");
    add("serve.site_miss_us", median(miss_s_) * 1e6, "us");
    add("serve.aggregate_us", median(aggregate_s_) * 1e6, "us");
    add("serve.cache.hit_ratio",
        ratio(static_cast<double>(serve_hits_),
              static_cast<double>(serve_hits_ + serve_misses_)),
        "ratio");
    add("serve.cache.evictions", static_cast<double>(serve_evictions_),
        "count");
    trace_summary();
  }
  if (!options_.spans_path.empty()) {
    std::ofstream out(options_.spans_path, std::ios::binary);
    out << rec()->to_trace_json();
    if (!out) fail("trace: cannot write " + options_.spans_path);
  }
  return result_;
}

}  // namespace

bool known_workload(const std::string& name) {
  return config_for(name).has_value();
}

RunResult run_workload(const RunOptions& options) {
  const auto config = config_for(options.workload);
  if (!config) {
    RunResult result;
    result.correct = false;
    result.failed_checks.push_back("unknown workload " + options.workload);
    return result;
  }
  Pipeline pipeline(options, *config);
  return pipeline.run();
}

std::string inputs_digest(std::uint64_t seed, int sites) {
  const corpus::Corpus corpus(corpus_params(sites));
  crawler::Crawler crawler(corpus);
  const crawler::CrawlOptions options;
  const fault::FaultPlan plan = crawler.plan_for(options);
  std::uint64_t h = fnv64(std::to_string(plan.params().seed));
  for (int i = 0; i < corpus.size(); ++i) {
    const corpus::SiteBlueprint& site = corpus.site(i);
    h = fnv64(site.host, h);
    h = fnv64(site.site, h);
    for (const auto& name : site.fp_cookie_names) h = fnv64(name, h);
    for (const auto& line : site.http_cookie_templates) h = fnv64(line, h);
    const fault::FaultDecision decision =
        plan.decide(site.rank, 0, options.visit_deadline_ms);
    h = fnv64(std::to_string(static_cast<int>(decision.cls)), h);
  }
  serve::WorkloadGenerator generator(query_spec(seed, sites));
  for (const auto& query : generator.generate(4096)) {
    h = fnv64(serve::to_text(query), h);
  }
  char out[32];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

}  // namespace perfbench
