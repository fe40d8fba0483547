#include "cli/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace cg::cli {
namespace {

/// from_chars over the whole of `text`.
template <typename T, typename... Format>
std::optional<T> whole(std::string_view text, Format... format) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, format...);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

int require_int(std::string_view program, const Setting& setting,
                int min_value, int max_value) {
  const auto value = parse_int(setting.text, min_value, max_value);
  if (!value) {
    usage_error(program, setting.source + " must be an integer in [" +
                             std::to_string(min_value) + ", " +
                             std::to_string(max_value) + "], got \"" +
                             setting.text + "\"");
  }
  return *value;
}

bool declared(const std::vector<std::string_view>& names,
              std::string_view name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

std::optional<int> parse_int(std::string_view text, int min_value,
                             int max_value) {
  const auto value = whole<long long>(text, 10);
  if (!value || *value < min_value || *value > max_value) return std::nullopt;
  return static_cast<int>(*value);
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    return whole<std::uint64_t>(text.substr(2), 16);
  }
  return whole<std::uint64_t>(text, 10);
}

std::optional<double> parse_double(std::string_view text) {
  const auto value = whole<double>(text);
  if (!value || !std::isfinite(*value) || *value < 0) return std::nullopt;
  return value;
}

void usage_error(std::string_view program, std::string_view message) {
  std::fprintf(stderr, "%.*s: %.*s\n", static_cast<int>(program.size()),
               program.data(), static_cast<int>(message.size()),
               message.data());
  std::exit(2);
}

int env_int(const char* name, int fallback, int min_value, int max_value) {
  const char* text = std::getenv(name);
  return text == nullptr
             ? fallback
             : require_int("error", {name, text}, min_value, max_value);
}

double env_double(const char* name, double fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr) return fallback;
  const auto value = parse_double(text);
  if (!value) {
    usage_error("error", std::string(name) +
                             " must be a non-negative number, got \"" + text +
                             "\"");
  }
  return *value;
}

Flags Flags::parse(std::string program, int argc, const char* const* argv,
                   int first, const FlagSpec& spec) {
  Flags flags;
  flags.program_ = std::move(program);
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      flags.positionals_.emplace_back(arg);
      continue;
    }
    const std::string name(arg.substr(2));
    if (declared(spec.switches, name)) {
      flags.values_[name] = {""};
    } else if (!declared(spec.values, name)) {
      std::string accepted;
      for (const auto* names : {&spec.values, &spec.switches}) {
        for (const std::string_view known : *names) {
          accepted += " --" + std::string(known);
        }
      }
      flags.fail("unknown flag " + std::string(arg) + " (accepted:" +
                 (accepted.empty() ? " none" : accepted) + ")");
    } else if (i + 1 == argc ||
               std::string_view(argv[i + 1]).starts_with("--")) {
      flags.fail(std::string(arg) + " needs a value");
    } else {
      flags.values_[name].emplace_back(argv[++i]);
    }
  }
  if (std::ssize(flags.positionals_) != spec.positionals) {
    std::string got;
    for (const std::string& arg : flags.positionals_) got += " \"" + arg + '"';
    flags.fail("expected " + std::to_string(spec.positionals) +
               " bare argument(s), got" + (got.empty() ? " none" : got));
  }
  return flags;
}

std::optional<Setting> Flags::find(std::string_view name,
                                   const char* env) const {
  if (const auto it = values_.find(name); it != values_.end()) {
    return Setting{"--" + it->first, it->second.back()};
  }
  const char* text = env == nullptr ? nullptr : std::getenv(env);
  if (text == nullptr) return std::nullopt;
  return Setting{env, text};
}

std::string Flags::get(std::string_view name,
                       std::string_view fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? std::string(fallback) : it->second.back();
}

std::vector<std::string> Flags::all(std::string_view name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? std::vector<std::string>{} : it->second;
}

int Flags::get_int(std::string_view name, int fallback, int min_value,
                   int max_value, const char* env) const {
  const auto setting = find(name, env);
  return setting ? require_int(program_, *setting, min_value, max_value)
                 : fallback;
}

std::uint64_t Flags::get_u64(std::string_view name,
                             std::uint64_t fallback) const {
  const auto setting = find(name);
  if (!setting) return fallback;
  const auto value = parse_u64(setting->text);
  if (!value) {
    fail(setting->source + " must be a decimal or 0x-hex integer, got \"" +
         setting->text + "\"");
  }
  return *value;
}

policy::PolicyKind policy_kind(const Flags& flags, const char* env) {
  const auto setting = flags.find("policy", env);
  if (!setting) return policy::PolicyKind::kNone;
  const auto kind = policy::parse_policy(setting->text);
  if (!kind) {
    flags.fail(setting->source +
               " must be none, cookieguard, fpi, or chips, got \"" +
               setting->text + "\"");
  }
  return *kind;
}

TraceFile open_trace(const Flags& flags, const char* env) {
  obs::TraceConfig config;
  const std::string detail = flags.get("trace-detail", "crawl");
  if (detail != "crawl" && detail != "full") {
    flags.fail("--trace-detail must be crawl or full, got \"" + detail + "\"");
  }
  config.detail = detail == "full" ? obs::Detail::kFull : obs::Detail::kCrawl;
  config.capture_wall_clock = flags.has("trace-wall-clock");

  TraceFile trace;
  const auto path = flags.find("trace", env);
  if (!path) return trace;
  trace.path = path->text;
  trace.out = std::make_unique<std::ofstream>(trace.path);
  if (!*trace.out) {
    std::fprintf(stderr, "%s: cannot open trace file %s\n",
                 flags.program().c_str(), trace.path.c_str());
    std::exit(1);
  }
  trace.recorder =
      std::make_unique<obs::TraceRecorder>(config, trace.out.get());
  return trace;
}

}  // namespace cg::cli
