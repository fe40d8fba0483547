// The physical cost behind Table 4: timed loops over the real interception
// primitives (stack attribution, metadata lookup, read filtering,
// message-bus round trip) — what CookieGuard adds per intercepted call,
// printed as wall-clock ns per operation on this host. Table 4's page-load
// rows are read from the fault-free crawls in bench_evaluation.
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <string>

#include "browser/page.h"
#include "cookieguard/cookieguard.h"
#include "ext/attribution.h"

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

}  // namespace

int main() {
  std::printf("-- interception primitive microbenchmarks --\n");
  time_primitives();
  return 0;
}
