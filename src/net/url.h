// URL parsing and serialisation.
//
// A pragmatic subset of the WHATWG URL model sufficient for the simulator:
// scheme://host[:port]/path[?query][#fragment]. Origins and registrable
// domains (eTLD+1) derive from here; every script, request and cookie in the
// reproduction is attributed through this type.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace cg::net {

class Url {
 public:
  Url() = default;

  /// Parses an absolute URL. Returns nullopt when there is no scheme/host.
  static std::optional<Url> parse(std::string_view input);

  /// Parses, aborting the program on failure. For compile-time-known URLs in
  /// catalogs and tests.
  static Url must_parse(std::string_view input);

  /// Resolves `relative` against this URL (subset: absolute URLs pass
  /// through; "/path" replaces the path; "name" resolves against the
  /// current directory; "?q" replaces the query).
  Url resolve(std::string_view relative) const;

  const std::string& scheme() const { return scheme_; }
  const std::string& host() const { return host_; }
  std::uint16_t port() const { return port_; }
  /// Path always begins with '/' for hierarchical URLs.
  const std::string& path() const { return path_; }
  const std::string& query() const { return query_; }
  const std::string& fragment() const { return fragment_; }

  bool is_secure() const { return scheme_ == "https" || scheme_ == "wss"; }

  /// "scheme://host[:port]" with the port omitted when default.
  std::string origin() const;

  /// Registrable domain (eTLD+1) of the host; empty for bare suffixes.
  /// Computed once, at parse.
  const std::string& site() const { return site_; }

  /// Default path for a cookie set on this URL (RFC 6265 §5.1.4).
  std::string default_cookie_path() const;

  /// Full serialisation.
  std::string spec() const;

  friend bool operator==(const Url&, const Url&) = default;

 private:
  std::string scheme_;
  std::string host_;
  std::uint16_t port_ = 0;
  std::string path_ = "/";
  std::string query_;
  std::string fragment_;
  std::string site_;
};

/// True when the two URLs' hosts share a registrable domain. This is the
/// paper's notion of "same domain" for scripts (§3 footnote 1). Compares
/// the sites stored at parse.
bool same_site(const Url& a, const Url& b);

std::uint16_t default_port_for_scheme(std::string_view scheme);

}  // namespace cg::net
