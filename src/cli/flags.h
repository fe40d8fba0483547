// Command-line flags for cgsim, cgserve and the benches: one strict parser.
//
// Every program (or cgsim command) declares the flags it reads. An unknown
// flag, a value flag with no value, or a malformed number exits 2 naming
// the flag: a silently dropped flag would produce a different dataset with
// exit 0.
#pragma once

#include <climits>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "policy/partition_policy.h"

namespace cg::cli {

/// Whole-string parses: nullopt unless all of `text` is the number. Ints
/// are base 10 in [min_value, max_value]; u64s are decimal or 0x hex;
/// doubles are finite and non-negative.
std::optional<int> parse_int(std::string_view text, int min_value,
                             int max_value);
std::optional<std::uint64_t> parse_u64(std::string_view text);
std::optional<double> parse_double(std::string_view text);

/// Prints "<program>: <message>" to stderr and exits 2.
[[noreturn]] void usage_error(std::string_view program,
                              std::string_view message);

/// Environment-only settings: the variable parsed strictly, else
/// `fallback`. A malformed value exits 2 naming the variable.
int env_int(const char* name, int fallback, int min_value,
            int max_value = INT_MAX);
double env_double(const char* name, double fallback);

/// The flags a program accepts, named without the leading "--".
struct FlagSpec {
  std::vector<std::string_view> values = {};    // take the next argument
  std::vector<std::string_view> switches = {};  // take none
  int positionals = 0;                          // exact count of bare args
};

/// A setting's source ("--threads" or "CG_THREADS") and text.
struct Setting {
  std::string source;
  std::string text;
};

class Flags {
 public:
  /// Parses argv[first, argc) against `spec`; exits 2 on an unknown flag, a
  /// value flag with no value (none left, or a "--" flag in its place), or
  /// the wrong number of bare arguments. A repeated flag keeps every value;
  /// the lookups below read the last.
  static Flags parse(std::string program, int argc, const char* const* argv,
                     int first, const FlagSpec& spec);

  const std::string& program() const { return program_; }
  bool has(std::string_view name) const { return values_.contains(name); }
  const std::vector<std::string>& positionals() const { return positionals_; }

  /// --name, else the environment variable `env` (when non-null), else
  /// nullopt.
  std::optional<Setting> find(std::string_view name,
                              const char* env = nullptr) const;
  std::string get(std::string_view name, std::string_view fallback) const;
  /// Every value --name was given, in order.
  std::vector<std::string> all(std::string_view name) const;
  /// find() parsed strictly, or `fallback`; exits 2 naming the source of a
  /// malformed value.
  int get_int(std::string_view name, int fallback, int min_value,
              int max_value = INT_MAX, const char* env = nullptr) const;
  std::uint64_t get_u64(std::string_view name, std::uint64_t fallback) const;

  [[noreturn]] void fail(std::string_view message) const {
    usage_error(program_, message);
  }

 private:
  std::string program_;
  std::map<std::string, std::vector<std::string>, std::less<>> values_;
  std::vector<std::string> positionals_;
};

/// --policy NAME (else `env`), default none; any other name exits 2.
policy::PolicyKind policy_kind(const Flags& flags, const char* env = nullptr);

/// A streaming trace export; `out` outlives the recorder's finish().
struct TraceFile {
  std::string path;
  std::unique_ptr<std::ofstream> out;
  std::unique_ptr<obs::TraceRecorder> recorder;
};

/// The trace --trace FILE (else `env`) asks for, with a null recorder when
/// none was. --trace-detail is crawl (the default) or full, anything else
/// exits 2; --trace-wall-clock adds real-time annotations. A file that
/// cannot be opened exits 1.
TraceFile open_trace(const Flags& flags, const char* env = nullptr);

}  // namespace cg::cli
