// cgserve — the CGAR serving daemon/CLI.
//
// Opens one archive chain, pays the load-time fold once, then answers
// queries in the line protocol of serve/query.h:
//
//   cgserve --archive crawl.cgar --query "site 17" --query table1
//   cgserve --archive w0.cgar --archive w1.cgar          # REPL on stdin
//
// The --archive list is one base+delta wave chain, read exactly as
// `cgsim query --archive w0.cgar,w1.cgar` reads it; a list that is not one
// chain does not serve (exit 1).
//
// One-shot --query flags run in order and exit; with none, cgserve reads
// queries from stdin until EOF ("quit" also exits) — that loop is the
// daemon mode, designed to sit behind a pipe or socket relay. Answers are
// single-line JSON on stdout, byte-deterministic for a given archive set
// and query; diagnostics (timing, startup) go to stderr so stdout stays
// clean for consumers.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cli/flags.h"
#include "obs/metrics.h"
#include "report/json.h"
#include "serve/server.h"
#include "store/atomic_file.h"

namespace {

using cg::serve::Query;
using cg::serve::Server;
using cg::serve::ServerConfig;

int usage() {
  std::fprintf(stderr,
               "usage: cgserve --archive BASE [--archive DELTA...]\n"
               "               [--query LINE...] [--timing] [--metrics FILE]\n"
               "               [--cache-entries N]\n"
               "queries: site <rank> | table1 | totals | top-exfiltrated [n]\n"
               "         | top-domains [n] | entity <name> | stats\n"
               "         | waves [domain]\n"
               "archives: one full archive, then the delta archives of\n"
               "          its later waves in order\n");
  return 2;
}

/// Answers one protocol line. Parse failures are answered (as JSON errors),
/// not dropped — a daemon must respond to every request.
void answer(const Server& server, const std::string& line, bool timing) {
  const auto query = cg::serve::parse_query(line);
  if (!query) {
    std::printf("{\"error\":\"cannot parse query\",\"line\":%s}\n",
                cg::report::Json(line).dump().c_str());
    return;
  }
  const auto start =
      std::chrono::steady_clock::now();  // cglint: allow(D1) — --timing latency diagnostics on stderr; stdout bytes never depend on it
  const std::string text = server.handle_text(*query);
  const auto elapsed =
      std::chrono::steady_clock::now() - start;  // cglint: allow(D1) — --timing latency diagnostics on stderr; stdout bytes never depend on it
  std::printf("%s\n", text.c_str());
  if (timing) {
    const double micros =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            elapsed)
            .count();
    std::fprintf(stderr, "cgserve: %s: %.1f us\n",
                 cg::serve::to_text(*query).c_str(), micros);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // --query LINE runs one-shot queries (none: a stdin REPL); --timing
  // prints per-query latency to stderr; --metrics FILE writes the serve.*
  // counters; --cache-entries N sizes the per-site answer cache, counted in
  // site answers (0 disables it).
  const auto flags = cg::cli::Flags::parse(
      "cgserve", argc, argv, 1,
      {.values = {"archive", "query", "metrics", "cache-entries"},
       .switches = {"timing"}});
  if (!flags.has("archive")) return usage();
  const bool timing = flags.has("timing");

  ServerConfig config;
  config.cache.max_entries =
      static_cast<std::size_t>(flags.get_int("cache-entries", 4096, 0));

  cg::store::Error error;
  const auto server = Server::open(flags.all("archive"), config, &error);
  if (server == nullptr) {
    std::fprintf(stderr, "cgserve: cannot serve: %s\n",
                 error.to_string().c_str());
    return 1;
  }
  std::fprintf(stderr, "cgserve: serving %d sites from %d archive(s)\n",
               server->site_count(), server->archive_count());

  if (flags.has("query")) {
    for (const std::string& line : flags.all("query")) {
      answer(*server, line, timing);
    }
  } else {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line == "quit" || line == "exit") break;
      if (line.empty()) continue;
      answer(*server, line, timing);
    }
  }

  if (const auto path = flags.find("metrics")) {
    cg::obs::MetricsRegistry registry;
    server->export_metrics(registry);
    if (!cg::store::write_file_atomic(
            path->text, registry.to_json().dump(2) + "\n", &error)) {
      std::fprintf(stderr, "cgserve: %s\n", error.to_string().c_str());
      return 1;
    }
  }
  return 0;
}
