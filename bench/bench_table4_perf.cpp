// Reproduces Table 4: page-load performance with and without CookieGuard.
//
// Two parts:
//   1. timed loops over the real interception primitives (stack
//     attribution, metadata lookup, read filtering, message-bus round
//     trip) — the physical cost CookieGuard adds per intercepted call,
//     printed as wall-clock ns per operation on this host;
//   2. the paired page-load simulation over the corpus, reporting the same
//     mean/median rows as the paper:
//        DOM Content Loaded  1659/946 ms  ->  1896/1020 ms
//        DOM Interactive     1464/842 ms  ->  1702/911  ms
//        Load Event          3197/2008 ms ->  3635/2136 ms   (~ +0.3 s mean)
#include <chrono>
#include <cstddef>

#include "browser/page.h"
#include "cookieguard/cookieguard.h"
#include "ext/attribution.h"
#include "perf/perf.h"

#include "bench_util.h"

namespace {

using namespace cg;

/// Runs `op` in doubling batches until one batch takes at least 0.2 s and
/// prints that batch's mean wall time per call. `op` returns a size derived
/// from its result, summed into a volatile so the call is not optimized
/// away.
template <typename Op>
void time_loop(const char* name, Op&& op) {
  using Clock = std::chrono::steady_clock;
  volatile std::size_t sink = 0;
  for (long long iterations = 1;; iterations *= 2) {
    const auto start = Clock::now();
    for (long long i = 0; i < iterations; ++i) sink = sink + op();
    const std::chrono::duration<double, std::nano> elapsed =
        Clock::now() - start;
    if (elapsed.count() >= 2e8 || iterations >= (1LL << 40)) {
      std::printf("  %-28s %10.1f ns/op  (%lld iterations)\n", name,
                  elapsed.count() / static_cast<double>(iterations),
                  iterations);
      return;
    }
  }
}

webplat::StackTrace deep_stack() {
  webplat::StackTrace stack;
  stack.push({"https://www.site1.com/assets/app.js", "site1.com", "boot",
              false});
  stack.push({"https://www.googletagmanager.com/gtm.js",
              "googletagmanager.com", "inject", false});
  stack.push({"https://cdn.tracker.com/t.js", "tracker.com", "fire", true});
  stack.push({"", "", "anonymous", false});
  return stack;
}

cookieguard::MetadataStore forty_cookie_store() {
  cookieguard::MetadataStore store;
  for (int i = 0; i < 40; ++i) {
    store.record("cookie_" + std::to_string(i), "vendor.com");
  }
  return store;
}

void time_jar_serialization(int cookie_count) {
  cookies::CookieJar jar;
  const auto url = net::Url::must_parse("https://www.site1.com/");
  for (int i = 0; i < cookie_count; ++i) {
    // Append, not chained operator+: GCC 12 -Wrestrict FP (PR 105329).
    std::string line = "c";
    line += std::to_string(i);
    line += "=v";
    line += std::to_string(i);
    line += "; Path=/";
    jar.set_from_string(url, line, 1746748800000);
  }
  const std::string name =
      "JarSerialization/" + std::to_string(cookie_count);
  time_loop(name.c_str(), [&] {
    return jar.document_cookie_string(url, 1746748800000).size();
  });
}

void time_guarded_read_filter() {
  // End-to-end cost of one guarded document.cookie read on a realistic page.
  browser::Browser browser({}, 1);
  browser::ScriptCatalog catalog;
  browser.set_catalog(&catalog);
  browser.set_document_provider(
      [](const net::Url&) { return browser::DocumentSpec{}; });
  cookieguard::CookieGuard guard;
  browser.add_extension(&guard);
  auto page = browser.navigate(net::Url::must_parse("https://www.site1.com/"));
  script::ExecContext tracker;
  tracker.script_url = "https://cdn.tracker.com/t.js";
  tracker.script_domain = "tracker.com";
  page->run_as(tracker, [&](script::PageServices& services) {
    for (int i = 0; i < 30; ++i) {
      std::string line = "c";
      line += std::to_string(i);
      line += "=val";
      line += std::to_string(i);
      line += "0123456789; Path=/";
      services.document_cookie_write(tracker, line);
    }
  });
  script::ExecContext reader;
  reader.script_url = "https://other.vendor.com/v.js";
  reader.script_domain = "vendor.com";
  time_loop("GuardedReadFilter", [&] {
    std::size_t size = 0;
    page->run_as(reader, [&](script::PageServices& services) {
      size = services.document_cookie_read(reader).size();
    });
    return size;
  });
}

void time_primitives() {
  const auto stack = deep_stack();
  time_loop("StackAttribution", [&] {
    return ext::attribute_stack(stack).script_url.size();
  });
  const cookieguard::MetadataStore store = forty_cookie_store();
  time_loop("MetadataLookup", [&] {
    return store.creator("cookie_17")->size();
  });
  time_loop("MetadataSnapshot", [&] { return store.snapshot().size(); });
  ext::MessageBus bus;
  bus.register_handler("lookup",
                       [](const std::string&) { return std::string("x"); });
  time_loop("MessageBusRoundTrip", [&] {
    return bus.request("lookup", "_ga").size();
  });
  time_jar_serialization(8);
  time_jar_serialization(32);
  time_guarded_read_filter();
}

void print_metric(const char* name, double paper_mean_n, double paper_med_n,
                  double paper_mean_g, double paper_med_g,
                  const analysis::TimingSummary& normal,
                  const analysis::TimingSummary& guarded) {
  std::printf("  %-20s | %7.0f / %-7.0f (paper %4.0f/%-4.0f) | %7.0f / %-7.0f"
              " (paper %4.0f/%-4.0f)\n",
              name, normal.mean_ms, double(normal.median_ms), paper_mean_n,
              paper_med_n, guarded.mean_ms, double(guarded.median_ms),
              paper_mean_g, paper_med_g);
}

}  // namespace

int main() {
  std::printf("-- interception primitive microbenchmarks --\n");
  time_primitives();

  corpus::Corpus corpus(bench::default_params());
  bench::print_header("Table 4 — page-load performance (mean / median ms)",
                      corpus);

  const auto comparison =
      perf::compare_page_load(corpus, corpus.size(),
                              policy::PolicyKind::kCookieGuard);

  std::printf("\n  %-20s | %-38s | %s\n", "metric", "Normal",
              "CookieGuard");
  std::printf("  %s\n", std::string(100, '-').c_str());
  print_metric("DOM Content Loaded", 1659, 946, 1896, 1020,
               comparison.normal.dom_content_loaded,
               comparison.guarded.dom_content_loaded);
  print_metric("DOM Interactive", 1464, 842, 1702, 911,
               comparison.normal.dom_interactive,
               comparison.guarded.dom_interactive);
  print_metric("Load Event", 3197, 2008, 3635, 2136,
               comparison.normal.load_event, comparison.guarded.load_event);
  std::printf("\n  mean overhead on load event: %.0f ms (paper: ~300 ms "
              "average overhead)\n\n",
              comparison.mean_overhead_ms);
  return 0;
}
