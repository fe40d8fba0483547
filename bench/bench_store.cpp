// CGAR store throughput and density: how fast does the archive write and
// read back, and how much smaller is it than the equivalent JSON logs the
// paper's extension would have posted?
//
// Reports pack (encode + frame + CRC) and replay (validate + decode)
// throughput in MB/s, archive bytes/site, and the size ratio against a
// JSON serialization of the same VisitLogs. The acceptance bar is archive
// <= 25% of JSON — checked here and printed pass/fail so CI can grep it.
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "report/json.h"
#include "store/reader.h"
#include "store/writer.h"

namespace {

using namespace cg;

// The JSON strawman: the same VisitLog fields the CGAR codec persists,
// serialized the way the paper's extension posts them (compact dump, one
// object per site). Field-for-field parity keeps the comparison honest.
std::size_t json_bytes(const instrument::VisitLog& log) {
  report::Json j = report::Json::object();
  j["site_host"] = log.site_host;
  j["site"] = log.site;
  j["rank"] = log.rank;
  j["pages_visited"] = log.pages_visited;
  j["has_cookie_logs"] = log.has_cookie_logs;
  j["has_request_logs"] = log.has_request_logs;
  j["failure"] = std::string(fault::failure_class_name(log.failure));
  j["attempts"] = log.attempts;
  report::Json timings = report::Json::object();
  timings["dom_interactive"] = log.landing_timings.dom_interactive;
  timings["dom_content_loaded"] = log.landing_timings.dom_content_loaded;
  timings["load_event"] = log.landing_timings.load_event;
  j["landing_timings"] = std::move(timings);

  report::Json script_sets = report::Json::array();
  for (const auto& r : log.script_sets) {
    report::Json o = report::Json::object();
    o["cookie_name"] = r.cookie_name;
    o["value"] = r.value;
    o["setter_url"] = r.setter_url;
    o["setter_domain"] = r.setter_domain;
    o["true_domain"] = r.true_domain;
    o["api"] = static_cast<int>(r.api);
    o["change_type"] = static_cast<int>(r.change_type);
    o["category"] = static_cast<int>(r.category);
    o["inclusion"] = static_cast<int>(r.inclusion);
    o["value_changed"] = r.value_changed;
    o["expires_changed"] = r.expires_changed;
    o["domain_changed"] = r.domain_changed;
    o["path_changed"] = r.path_changed;
    o["prev_expires"] = r.prev_expires;
    o["new_expires"] = r.new_expires;
    o["time"] = r.time;
    script_sets.push_back(std::move(o));
  }
  j["script_sets"] = std::move(script_sets);

  report::Json http_sets = report::Json::array();
  for (const auto& r : log.http_sets) {
    report::Json o = report::Json::object();
    o["cookie_name"] = r.cookie_name;
    o["value"] = r.value;
    o["response_host"] = r.response_host;
    o["setter_domain"] = r.setter_domain;
    o["http_only"] = r.http_only;
    o["first_party"] = r.first_party;
    o["change_type"] = static_cast<int>(r.change_type);
    o["time"] = r.time;
    http_sets.push_back(std::move(o));
  }
  j["http_sets"] = std::move(http_sets);

  report::Json reads = report::Json::array();
  for (const auto& r : log.reads) {
    report::Json o = report::Json::object();
    o["reader_url"] = r.reader_url;
    o["reader_domain"] = r.reader_domain;
    o["api"] = static_cast<int>(r.api);
    o["cookies_returned"] = r.cookies_returned;
    o["time"] = r.time;
    reads.push_back(std::move(o));
  }
  j["reads"] = std::move(reads);

  report::Json requests = report::Json::array();
  for (const auto& r : log.requests) {
    report::Json o = report::Json::object();
    o["url"] = r.url;
    o["host"] = r.host;
    o["dest_domain"] = r.dest_domain;
    o["initiator_url"] = r.initiator_url;
    o["initiator_domain"] = r.initiator_domain;
    o["destination"] = static_cast<int>(r.destination);
    o["time"] = r.time;
    requests.push_back(std::move(o));
  }
  j["requests"] = std::move(requests);

  report::Json dom_mods = report::Json::array();
  for (const auto& r : log.dom_mods) {
    report::Json o = report::Json::object();
    o["modifier_domain"] = r.modifier_domain;
    o["target_domain"] = r.target_domain;
    dom_mods.push_back(std::move(o));
  }
  j["dom_mods"] = std::move(dom_mods);

  report::Json includes = report::Json::array();
  for (const auto& r : log.includes) {
    report::Json o = report::Json::object();
    o["script_id"] = r.script_id;
    o["url"] = r.url;
    o["domain"] = r.domain;
    o["category"] = static_cast<int>(r.category);
    o["inclusion"] = static_cast<int>(r.inclusion);
    o["is_inline"] = r.is_inline;
    includes.push_back(std::move(o));
  }
  j["includes"] = std::move(includes);

  return j.dump().size() + 1;  // + newline, one JSON line per site
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cg;
  const auto flags = bench::parse_flags(argc, argv, {"threads"});
  corpus::Corpus corpus(bench::default_params());
  const int threads = bench::crawl_threads(flags);
  bench::print_header("CGAR store — write/read throughput and size vs JSON",
                      corpus, threads);

  // Phase 0: the crawl itself, kept out of both timed sections. Logs are
  // retained in memory so pack/replay timings measure the codec, not the
  // simulator.
  crawler::Crawler crawler(corpus);
  crawler::CrawlOptions options;
  options.threads = threads;
  std::vector<instrument::VisitLog> logs;
  logs.reserve(static_cast<std::size_t>(corpus.size()));
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    logs.push_back(std::move(log));
  });
  const fault::FaultPlan plan = crawler.plan_for(options);

  // Phase 1: pack. Writer against an in-memory sink so the numbers are
  // codec throughput, not disk weather.
  store::WriterOptions writer_options;
  writer_options.corpus_seed = corpus.params().seed;
  writer_options.fault_seed = plan.enabled() ? plan.params().seed : 0;
  auto sink = std::make_unique<store::BufferSink>();
  const store::BufferSink* buffer = sink.get();
  const auto write_start = std::chrono::steady_clock::now();
  store::Writer writer(std::move(sink), writer_options);
  for (const auto& log : logs) writer.add(log);
  store::Error error;
  if (!writer.finish(&error)) {
    std::fprintf(stderr, "error: pack failed (%s)\n",
                 error.to_string().c_str());
    return 1;
  }
  const double write_s = seconds_since(write_start);
  const std::string archive = buffer->bytes();
  const double archive_mb = static_cast<double>(archive.size()) / 1e6;

  // Phase 2: replay. Full validating read — footer walk, CRC per block,
  // decode every record.
  const auto read_start = std::chrono::steady_clock::now();
  const auto reader = store::Reader::from_buffer(archive, &error);
  if (!reader) {
    std::fprintf(stderr, "error: replay open failed (%s)\n",
                 error.to_string().c_str());
    return 1;
  }
  std::size_t records = 0;
  const bool ok = reader->for_each(
      [&records](instrument::VisitLog&& log) {
        records += log.script_sets.size() + log.http_sets.size() +
                   log.reads.size() + log.requests.size() +
                   log.dom_mods.size() + log.includes.size();
      },
      &error);
  const double read_s = seconds_since(read_start);
  if (!ok) {
    std::fprintf(stderr, "error: replay failed (%s)\n",
                 error.to_string().c_str());
    return 1;
  }

  // Phase 3: the JSON equivalent, size only (not timed — JSON writing is
  // not the baseline under test, its bytes are).
  std::size_t json_total = 0;
  for (const auto& log : logs) json_total += json_bytes(log);
  const double json_mb = static_cast<double>(json_total) / 1e6;

  const double sites = static_cast<double>(logs.size());
  const double ratio =
      json_total > 0
          ? static_cast<double>(archive.size()) / static_cast<double>(json_total)
          : 0.0;
  std::printf("\nsites: %zu, records: %zu\n", logs.size(), records);
  std::printf("  %-28s %8.1f MB/s  (%.2f MB in %.3f s)\n", "pack (write)",
              write_s > 0 ? archive_mb / write_s : 0.0, archive_mb, write_s);
  std::printf("  %-28s %8.1f MB/s  (%.2f MB in %.3f s)\n", "replay (read)",
              read_s > 0 ? archive_mb / read_s : 0.0, archive_mb, read_s);
  std::printf("  %-28s %8.1f bytes/site\n", "archive density",
              sites > 0 ? static_cast<double>(archive.size()) / sites : 0.0);
  std::printf("  %-28s %8.1f bytes/site  (%.2f MB)\n", "JSON equivalent",
              sites > 0 ? static_cast<double>(json_total) / sites : 0.0,
              json_mb);
  std::printf("  %-28s %8.1f%% of JSON (bar: <= 25%%)  [%s]\n", "size ratio",
              100.0 * ratio, ratio <= 0.25 ? "PASS" : "FAIL");
  std::printf("\n");
  return ratio <= 0.25 ? 0 : 1;
}
