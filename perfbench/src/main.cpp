// perfbench: one workload of the end-to-end benchmark per process.
//
//   perfbench --workload crawl_pack|crawl_guarded|serve_zipf --seed N
//             --seconds S --trace 0|1 [--sites N] [--spans FILE]
//   perfbench --inputs-digest --seed N [--sites N]
//
// A human report goes to stderr. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). Exit status: 0 when every output check
// passed, 1 when one failed, 2 on bad usage.
//
// --corrupt-archive flips one byte of every packed archive before it is
// reopened; the output checks must then fail (a self-test of the checks).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "pipeline.h"

namespace {

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--sites N] [--spans FILE] [--corrupt-archive]\n"
               "       perfbench --inputs-digest --seed N [--sites N]\n",
               problem);
  std::exit(2);
}

long long parse_int(const char* text, const char* flag, long long lo,
                    long long hi) {
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || value < lo || value > hi) {
    usage((std::string(flag) + " is out of range").c_str());
  }
  return value;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool digest = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage((arg + " needs a value").c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      const char* text = value();
      char* end = nullptr;
      options.seed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0') usage("--seed must be an integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = static_cast<double>(
          parse_int(value(), "--seconds", 1, 3600));
    } else if (arg == "--trace") {
      options.trace = parse_int(value(), "--trace", 0, 1) == 1;
    } else if (arg == "--sites") {
      options.sites = static_cast<int>(parse_int(value(), "--sites", 8, 1 << 20));
    } else if (arg == "--spans") {
      options.spans_path = value();
    } else if (arg == "--corrupt-archive") {
      options.corrupt_archive = true;
    } else if (arg == "--inputs-digest") {
      digest = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");
  if (digest) {
    std::printf("%s\n", perfbench::inputs_digest(options.seed, options.sites)
                            .c_str());
    return 0;
  }
  if (!perfbench::known_workload(options.workload)) {
    usage("--workload must be crawl_pack, crawl_guarded or serve_zipf");
  }

  const perfbench::RunResult result = perfbench::run_workload(options);

  std::fprintf(stderr, "perfbench %s seed=%llu trace=%d\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               options.trace ? 1 : 0);
  for (const auto& note : result.notes) {
    std::fprintf(stderr, "  %s\n", note.c_str());
  }
  for (const auto& metric : result.metrics) {
    std::fprintf(stderr, "  %-32s %14.6g %s\n", metric.name.c_str(),
                 metric.value, metric.unit.c_str());
  }
  for (const auto& check : result.failed_checks) {
    std::fprintf(stderr, "  CHECK FAILED: %s\n", check.c_str());
  }
  std::fprintf(stderr, "  output checks: %s\n",
               result.correct ? "all passed" : "FAILED");

  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& metric = result.metrics[i];
    if (i > 0) line += ", ";
    line += "\"" + metric.name + "\": {\"value\": " +
            json_number(metric.value) + ", \"unit\": \"" + metric.unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return result.correct ? 0 : 1;
}
