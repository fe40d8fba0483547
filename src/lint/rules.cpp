#include "lint/rules.h"

#include <algorithm>
#include <array>
#include <set>

namespace cg::lint {
namespace {

/// Append-style message builder. GCC 12's -Wrestrict false-fires on chained
/// std::string operator+ (PR 105329); building via append keeps -Werror on.
template <typename... Parts>
std::string concat(Parts&&... parts) {
  std::string out;
  (out.append(parts), ...);
  return out;
}

// ---- suppression parsing -------------------------------------------------

bool is_rule_char(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
}

/// Strip comment delimiters, whitespace, and the `—`/`--`/`:` separator that
/// introduces the reason.
std::string_view trim_reason(std::string_view text) {
  while (!text.empty()) {
    const unsigned char c = static_cast<unsigned char>(text.front());
    if (c == ' ' || c == '\t' || c == '-' || c == ':' || c >= 0x80) {
      // >= 0x80 strips UTF-8 punctuation like the em dash byte-wise; reasons
      // are expected to start with an ASCII word.
      text.remove_prefix(1);
    } else {
      break;
    }
  }
  while (!text.empty()) {
    const char c = text.back();
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      text.remove_suffix(1);
    } else if (text.size() >= 2 && text.substr(text.size() - 2) == "*/") {
      text.remove_suffix(2);
    } else {
      break;
    }
  }
  return text;
}

}  // namespace

std::vector<Suppression> parse_suppressions(const std::vector<Token>& tokens,
                                            const std::string& file,
                                            std::vector<Violation>* errors) {
  std::vector<Suppression> result;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != TokenKind::kComment) continue;
    const std::string_view text = token.text;
    const std::size_t marker = text.find("cglint:");
    if (marker == std::string_view::npos) continue;

    auto malformed = [&](const std::string& detail) {
      if (errors != nullptr) {
        errors->push_back({file, token.line, "S1",
                           concat("malformed cglint annotation: ", detail)});
      }
    };

    std::string_view rest = text.substr(marker + 7);
    while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t')) {
      rest.remove_prefix(1);
    }
    static constexpr std::string_view kAllow = "allow(";
    if (rest.substr(0, kAllow.size()) != kAllow) {
      malformed("expected allow(RULE[,RULE...])");
      continue;
    }
    rest.remove_prefix(kAllow.size());
    const std::size_t close = rest.find(')');
    if (close == std::string_view::npos) {
      malformed("unterminated allow(");
      continue;
    }

    Suppression suppression;
    suppression.comment_line = token.line;
    std::string rule;
    bool bad_rule = false;
    for (const char c : rest.substr(0, close)) {
      if (c == ',' || c == ' ') {
        if (!rule.empty()) suppression.rules.push_back(rule);
        rule.clear();
      } else if (is_rule_char(c)) {
        rule += c;
      } else {
        bad_rule = true;
      }
    }
    if (!rule.empty()) suppression.rules.push_back(rule);
    if (bad_rule || suppression.rules.empty()) {
      malformed("rule list must be comma-separated rule IDs");
      continue;
    }
    suppression.reason = std::string(trim_reason(rest.substr(close + 1)));
    if (suppression.reason.empty() && errors != nullptr) {
      errors->push_back(
          {file, token.line, "S2",
           concat("suppression without a reason — write `// cglint: allow(",
                  suppression.rules.front(), ") — why this is safe`")});
    }

    // Trailing comment suppresses its own line; a comment alone on a line
    // suppresses the next code line.
    const bool own_line =
        i == 0 || tokens[i - 1].line != token.line ||
        tokens[i - 1].kind == TokenKind::kComment;
    if (own_line) {
      suppression.target_line = 0;  // resolved below: next non-comment token
      for (std::size_t j = i + 1; j < tokens.size(); ++j) {
        if (tokens[j].kind == TokenKind::kComment) continue;
        suppression.target_line = tokens[j].line;
        break;
      }
      if (suppression.target_line == 0) suppression.target_line = token.line;
    } else {
      suppression.target_line = token.line;
    }
    result.push_back(std::move(suppression));
  }
  return result;
}

// ---- rule engine ---------------------------------------------------------

namespace {

struct Sink {
  const Config* config;
  const std::string* path;
  std::string module;
  std::vector<Violation>* out;

  void add(const std::string& rule, int line, std::string message) const {
    if (config->rule_allowlisted(rule, *path)) return;
    out->push_back({*path, line, rule, std::move(message)});
  }
};

bool is_member_access(const std::vector<Token>& code, std::size_t i) {
  if (i == 0) return false;
  const std::string_view prev = code[i - 1].text;
  return prev == "." || prev == "->";
}

bool next_is(const std::vector<Token>& code, std::size_t i,
             std::string_view text) {
  return i + 1 < code.size() && code[i + 1].text == text;
}

// D1: the virtual clock (net/clock.h SimClock) is the only time source that
// may influence crawl output; every wall-clock read is flagged.
void rule_d1(const Sink& sink, const std::vector<Token>& code) {
  static const std::set<std::string_view> kClockIds = {
      "system_clock",  "steady_clock", "high_resolution_clock",
      "utc_clock",     "file_clock",   "gettimeofday",
      "clock_gettime", "timespec_get", "localtime",
      "gmtime",        "mktime",       "ftime"};
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    const std::string_view id = code[i].text;
    const bool named_clock = kClockIds.count(id) != 0;
    const bool time_call = id == "time" && next_is(code, i, "(") &&
                           !is_member_access(code, i);
    if (!named_clock && !time_call) continue;
    sink.add("D1", code[i].line,
             concat("wall-clock time source '", id,
                    "' — crawl-visible time must come from the virtual "
                    "clock (net/clock.h)"));
  }
}

// D2: all randomness must flow from the seeded corpus PRNG (script/rng.h);
// std:: engines and libc rand are nondeterministic or default-seeded traps.
void rule_d2(const Sink& sink, const std::vector<Token>& code) {
  static const std::set<std::string_view> kEngineIds = {
      "random_device", "mt19937",        "mt19937_64",
      "minstd_rand",   "minstd_rand0",   "default_random_engine",
      "knuth_b",       "ranlux24",       "ranlux24_base",
      "ranlux48",      "ranlux48_base"};
  static const std::set<std::string_view> kCallIds = {
      "rand", "srand", "rand_r", "drand48", "srand48", "lrand48", "mrand48"};
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    const std::string_view id = code[i].text;
    const bool engine = kEngineIds.count(id) != 0;
    const bool call = kCallIds.count(id) != 0 && next_is(code, i, "(") &&
                      !is_member_access(code, i);
    if (!engine && !call) continue;
    sink.add("D2", code[i].line,
             concat("nondeterministic randomness '", id,
                    "' — derive all randomness from the seeded corpus PRNG "
                    "(script/rng.h)"));
  }
}

bool is_unordered_container(std::string_view id) {
  return id == "unordered_map" || id == "unordered_set" ||
         id == "unordered_multimap" || id == "unordered_multiset";
}

// D3: hash-iteration order leaks into output bytes. Two checks: (a) in
// modules that feed serialized output (restrict D3 ... in the config), any
// unordered container is flagged — the safe default there is std::map/set;
// (b) everywhere, a range-for or .begin() over a variable declared with an
// unordered type is flagged.
void rule_d3(const Sink& sink, const std::vector<Token>& code) {
  const bool restricted_module =
      sink.config->rule_applies("D3", sink.module);
  std::set<std::string_view> unordered_vars;

  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier ||
        !is_unordered_container(code[i].text)) {
      continue;
    }
    if (restricted_module) {
      sink.add("D3", code[i].line,
               concat("'", code[i].text,
                      "' in a deterministic-output module — iteration order "
                      "leaks into emitted bytes; use std::map/std::set or "
                      "drain in sorted order"));
    }
    // Track the declared variable name: unordered_map<...> NAME
    std::size_t j = i + 1;
    if (j < code.size() && code[j].text == "<") {
      int depth = 0;
      for (; j < code.size(); ++j) {
        if (code[j].text == "<") ++depth;
        if (code[j].text == ">") {
          if (--depth == 0) {
            ++j;
            break;
          }
        }
      }
    }
    if (j < code.size() && code[j].kind == TokenKind::kIdentifier) {
      unordered_vars.insert(code[j].text);
    }
  }
  if (unordered_vars.empty()) return;

  for (std::size_t i = 0; i < code.size(); ++i) {
    // for ( ... : EXPR ) with a tracked variable in EXPR.
    if (code[i].text == "for" && next_is(code, i, "(")) {
      int depth = 0;
      bool past_colon = false;
      for (std::size_t j = i + 1; j < code.size(); ++j) {
        if (code[j].text == "(") ++depth;
        if (code[j].text == ")" && --depth == 0) break;
        if (code[j].text == ":" && depth == 1) past_colon = true;
        if (past_colon && code[j].kind == TokenKind::kIdentifier &&
            unordered_vars.count(code[j].text) != 0) {
          sink.add("D3", code[i].line,
                   concat("range-for over unordered container '",
                          code[j].text,
                          "' — iteration order is hash/seed dependent"));
          break;
        }
      }
    }
    // TRACKED . begin( / cbegin(
    if (code[i].kind == TokenKind::kIdentifier &&
        unordered_vars.count(code[i].text) != 0 && next_is(code, i, ".") &&
        i + 2 < code.size() &&
        (code[i + 2].text == "begin" || code[i + 2].text == "cbegin") &&
        next_is(code, i + 2, "(")) {
      sink.add("D3", code[i].line,
               concat("iterator over unordered container '", code[i].text,
                      "' — iteration order is hash/seed dependent"));
    }
  }
}

// ---- D4: mutable static state --------------------------------------------

enum class ScopeKind { kNamespace, kClass, kEnum, kBlock };

struct DeclInfo {
  bool has_const = false;      // const / constexpr / consteval
  bool has_paren = false;      // a '(' before the terminator
  bool has_assign = false;     // '=' at top paren level
  bool has_inline = false;
  char terminator = ';';       // ';' or '{'
};

/// Summarize the declaration starting at `begin` (the token after
/// static/thread_local) up to its `;` or body `{`.
DeclInfo scan_decl(const std::vector<Token>& code, std::size_t begin) {
  DeclInfo info;
  int paren_depth = 0;
  for (std::size_t i = begin; i < code.size(); ++i) {
    const std::string_view t = code[i].text;
    if (t == "(") {
      if (paren_depth == 0) info.has_paren = true;
      ++paren_depth;
    } else if (t == ")") {
      --paren_depth;
    } else if (paren_depth == 0) {
      if (t == ";") {
        info.terminator = ';';
        break;
      }
      if (t == "{") {
        info.terminator = '{';
        break;
      }
      if (t == "=") {
        info.has_assign = true;
      } else if (t == "const" || t == "constexpr" || t == "consteval") {
        info.has_const = true;
      } else if (t == "inline") {
        info.has_inline = true;
      }
    }
  }
  return info;
}

bool all_namespace(const std::vector<ScopeKind>& scopes) {
  return std::all_of(scopes.begin(), scopes.end(), [](ScopeKind k) {
    return k == ScopeKind::kNamespace;
  });
}

// Keywords that exempt a namespace-scope statement from the global check.
bool starts_exempt_global(std::string_view first) {
  static const std::set<std::string_view> kExempt = {
      "using",     "typedef", "template", "extern",   "friend",
      "namespace", "class",   "struct",   "enum",     "union",
      "concept",   "static_assert",       "requires", "export"};
  return kExempt.count(first) != 0;
}

void rule_d4(const Sink& sink, const std::vector<Token>& code) {
  std::vector<ScopeKind> scopes;
  ScopeKind pending = ScopeKind::kBlock;
  bool pending_set = false;

  // Namespace-scope statement accumulator for the plain-global check.
  std::size_t stmt_begin = 0;
  bool stmt_saw_brace = false;
  // Open '(' count: a brace inside parentheses (a `= {}` default argument,
  // a braced argument) belongs to the statement around it.
  int parens = 0;

  auto check_global_stmt = [&](std::size_t end) {
    // [stmt_begin, end) is a flat namespace-scope statement ending in ';'.
    if (stmt_saw_brace || end <= stmt_begin) return;
    const std::size_t n = end - stmt_begin;
    if (n < 2) return;
    const std::string_view first = code[stmt_begin].text;
    if (starts_exempt_global(first) || first == "static" ||
        first == "thread_local") {
      return;  // fwd decls / aliases / statics handled elsewhere
    }
    const DeclInfo info = scan_decl(code, stmt_begin);
    if (info.has_const || info.has_paren) return;  // const, or prototype-ish
    const Token& last = code[end - 1];
    const bool var_shape =
        info.has_assign || last.kind == TokenKind::kIdentifier ||
        last.text == "]";
    if (!var_shape) return;
    sink.add("D4", code[stmt_begin].line,
             "mutable namespace-scope global — the library must hold no "
             "mutable static state (DESIGN.md §7)");
  };

  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& token = code[i];
    const std::string_view t = token.text;

    const bool at_namespace_scope = all_namespace(scopes);

    // Scope machine.
    if (t == "namespace") {
      pending = ScopeKind::kNamespace;
      pending_set = true;
    } else if (t == "enum") {
      pending = ScopeKind::kEnum;
      pending_set = true;
    } else if ((t == "class" || t == "struct" || t == "union") &&
               (!pending_set || pending != ScopeKind::kEnum)) {
      pending = ScopeKind::kClass;
      pending_set = true;
    } else if (t == "{") {
      const ScopeKind kind = pending_set ? pending : ScopeKind::kBlock;
      scopes.push_back(kind);
      pending_set = false;
      if (kind == ScopeKind::kNamespace) {
        stmt_begin = i + 1;  // fresh statement run inside the namespace
        stmt_saw_brace = false;
      } else if (at_namespace_scope && parens == 0) {
        stmt_saw_brace = true;
      }
      continue;
    } else if (t == "}") {
      if (!scopes.empty()) scopes.pop_back();
      // A '}' closing a class/function at namespace scope usually ends a
      // statement (possibly followed by ';' which restarts cleanly).
      if (all_namespace(scopes) && parens == 0) {
        stmt_begin = i + 1;
        stmt_saw_brace = false;
      }
      continue;
    } else if (t == ";") {
      if (at_namespace_scope) {
        check_global_stmt(i);
        stmt_begin = i + 1;
        stmt_saw_brace = false;
      }
      pending_set = false;
      continue;
    } else if (t == "(") {
      ++parens;
    } else if (t == ")") {
      if (parens > 0) --parens;
      // `)` before `{` is a function/control body, never a class.
      pending = ScopeKind::kBlock;
      pending_set = true;
    }

    // The static / thread_local checks.
    const bool in_class =
        !scopes.empty() && scopes.back() == ScopeKind::kClass;
    if (t == "thread_local") {
      if (i > 0 && code[i - 1].text == "extern") {
        continue;  // declaration only; the definition is where D4 fires
      }
      const DeclInfo info = scan_decl(code, i + 1);
      if (!info.has_const) {
        sink.add("D4", token.line,
                 "mutable thread_local state — thread-local mutability needs "
                 "an explicit rationale (DESIGN.md §8)");
      }
    } else if (t == "static" && token.kind == TokenKind::kIdentifier) {
      const DeclInfo info = scan_decl(code, i + 1);
      if (info.has_const) continue;
      if (i + 1 < code.size() && code[i + 1].text == "thread_local") {
        continue;  // reported by the thread_local branch
      }
      if (in_class) {
        // Member functions and plain member declarations are fine; a static
        // inline data member with an initializer is mutable global state.
        if (!info.has_paren && (info.has_assign || info.has_inline)) {
          sink.add("D4", token.line,
                   "mutable static data member — shared mutable state "
                   "(DESIGN.md §7)");
        }
        continue;
      }
      if (info.has_paren) {
        if (info.terminator == '{') continue;  // function definition
        if (at_namespace_scope) continue;      // file-static prototype
        // Block scope: `static T x(args);` — a constructor call, not a
        // prototype, in practice.
        sink.add("D4", token.line,
                 "mutable function-local static — not thread-safe state and "
                 "invisible to the determinism audit (DESIGN.md §7)");
        continue;
      }
      sink.add("D4", token.line,
               at_namespace_scope
                   ? "mutable file-static global — the library must hold no "
                     "mutable static state (DESIGN.md §7)"
                   : "mutable function-local static — not thread-safe state "
                     "and invisible to the determinism audit (DESIGN.md §7)");
    }
  }
}

// W1: an std::ofstream that is written but never health-checked turns disk
// errors (ENOSPC, quota, dying media) into silent data loss. In modules on
// the durable-output path (restrict W1 ... in the config), every owning
// ofstream declaration must be paired — somewhere in the same file — with a
// health check of that stream (`!name`, or name.good()/fail()/bad()/
// rdstate()), or replaced with store::ByteSink / store::write_file_atomic,
// which taxonomize failures instead of swallowing them.
void rule_w1(const Sink& sink, const std::vector<Token>& code) {
  if (!sink.config->rule_applies("W1", sink.module)) return;

  struct Decl {
    std::string_view name;
    int line;
  };
  std::vector<Decl> decls;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier ||
        code[i].text != "ofstream") {
      continue;
    }
    const std::size_t j = i + 1;
    if (j >= code.size()) continue;
    if (code[j].text == "&" || code[j].text == "*") {
      continue;  // reference/pointer: not the owner of the stream's fate
    }
    if (code[j].kind == TokenKind::kIdentifier) {
      decls.push_back({code[j].text, code[i].line});
    }
  }
  if (decls.empty()) return;

  // Names that are stream-health-checked anywhere in the file.
  std::set<std::string_view> checked;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i].text == "!" && i + 1 < code.size() &&
        code[i + 1].kind == TokenKind::kIdentifier) {
      checked.insert(code[i + 1].text);
    }
    if (code[i].kind == TokenKind::kIdentifier && next_is(code, i, ".") &&
        i + 2 < code.size() && next_is(code, i + 2, "(")) {
      const std::string_view member = code[i + 2].text;
      if (member == "good" || member == "fail" || member == "bad" ||
          member == "rdstate") {
        checked.insert(code[i].text);
      }
    }
  }

  for (const Decl& decl : decls) {
    if (checked.count(decl.name) != 0) continue;
    sink.add("W1", decl.line,
             concat("std::ofstream '", decl.name,
                    "' is never health-checked — a failed write is silent "
                    "data loss; test !", decl.name, " / ", decl.name,
                    ".good() after writing, or use store::ByteSink / "
                    "store::write_file_atomic"));
  }
}

// L1/L2: every quoted cross-module include must be a declared DAG edge.
// Modules named on an `apps` config line (tests/tools/bench) report under
// L2 so the application tier can be scoped separately from the library DAG.
void rule_l1(const Sink& sink, const std::vector<Token>& tokens) {
  const std::string rule =
      sink.config->app_module(sink.module) ? "L2" : "L1";
  for (const Token& token : tokens) {
    if (token.kind != TokenKind::kDirective) continue;
    const auto include = parse_include(token);
    if (!include || !include->quoted) continue;
    if (include->path.find('/') == std::string::npos) continue;  // sibling
    const std::string target =
        sink.config->module_of(concat("src/", include->path));
    if (target == sink.module) continue;
    if (!sink.config->module_declared(target)) {
      sink.add(rule, token.line,
               concat("include of undeclared module '", target,
                      "' — add it to lint/layering.txt"));
      continue;
    }
    if (!sink.config->edge_allowed(sink.module, target)) {
      sink.add(rule, token.line,
               concat("layering violation: module '", sink.module,
                      "' may not include '", target,
                      "' (edge not declared in lint/layering.txt)"));
    }
  }
}

}  // namespace

std::vector<Violation> run_rules(const Config& config, const std::string& path,
                                 const std::vector<Token>& tokens) {
  std::vector<Violation> violations;
  Sink sink{&config, &path, config.module_of(path), &violations};

  std::vector<Token> code;
  code.reserve(tokens.size());
  for (const Token& token : tokens) {
    if (token.kind != TokenKind::kComment &&
        token.kind != TokenKind::kDirective) {
      code.push_back(token);
    }
  }

  rule_d1(sink, code);
  rule_d2(sink, code);
  rule_d3(sink, code);
  rule_d4(sink, code);
  rule_w1(sink, code);
  rule_l1(sink, tokens);

  std::stable_sort(violations.begin(), violations.end(),
                   [](const Violation& a, const Violation& b) {
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  return violations;
}

}  // namespace cg::lint
