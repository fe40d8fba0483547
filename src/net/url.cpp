#include "net/url.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "net/psl.h"

namespace cg::net {
namespace {

std::string ascii_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool valid_scheme(std::string_view s) {
  if (s.empty() || !std::isalpha(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isalnum(c) || c == '+' || c == '-' || c == '.';
  });
}

}  // namespace

std::uint16_t default_port_for_scheme(std::string_view scheme) {
  if (scheme == "http" || scheme == "ws") return 80;
  if (scheme == "https" || scheme == "wss") return 443;
  return 0;
}

std::optional<Url> Url::parse(std::string_view input) {
  const auto scheme_end = input.find("://");
  if (scheme_end == std::string_view::npos) return std::nullopt;

  Url url;
  url.scheme_ = ascii_lower(input.substr(0, scheme_end));
  if (!valid_scheme(url.scheme_)) return std::nullopt;

  std::string_view rest = input.substr(scheme_end + 3);

  const auto frag_pos = rest.find('#');
  if (frag_pos != std::string_view::npos) {
    url.fragment_ = std::string(rest.substr(frag_pos + 1));
    rest = rest.substr(0, frag_pos);
  }
  const auto query_pos = rest.find('?');
  if (query_pos != std::string_view::npos) {
    url.query_ = std::string(rest.substr(query_pos + 1));
    rest = rest.substr(0, query_pos);
  }
  const auto path_pos = rest.find('/');
  std::string_view authority = rest;
  if (path_pos != std::string_view::npos) {
    url.path_ = std::string(rest.substr(path_pos));
    authority = rest.substr(0, path_pos);
  }

  // Strip userinfo if present; the simulator never uses credentials.
  const auto at = authority.rfind('@');
  if (at != std::string_view::npos) authority = authority.substr(at + 1);

  const auto colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    const std::string port_str(authority.substr(colon + 1));
    char* end = nullptr;
    const long port = std::strtol(port_str.c_str(), &end, 10);
    if (end == port_str.c_str() || *end != '\0' || port < 0 || port > 65535) {
      return std::nullopt;
    }
    url.port_ = static_cast<std::uint16_t>(port);
    authority = authority.substr(0, colon);
  } else {
    url.port_ = default_port_for_scheme(url.scheme_);
  }

  if (authority.empty()) return std::nullopt;
  url.host_ = ascii_lower(authority);
  url.site_ = etld_plus_one(url.host_);
  return url;
}

Url Url::must_parse(std::string_view input) {
  auto url = parse(input);
  if (!url) {
    std::fprintf(stderr, "Url::must_parse: invalid URL: %.*s\n",
                 static_cast<int>(input.size()), input.data());
    std::abort();
  }
  return *std::move(url);
}

Url Url::resolve(std::string_view relative) const {
  if (relative.find("://") != std::string_view::npos) {
    if (auto abs = parse(relative)) return *abs;
  }
  Url out = *this;
  out.fragment_.clear();
  if (relative.empty()) return out;
  if (relative[0] == '#') {
    out.fragment_ = std::string(relative.substr(1));
    out.query_ = query_;
    return out;
  }
  out.query_.clear();
  if (relative[0] == '?') {
    out.query_ = std::string(relative.substr(1));
    out.path_ = path_;
    return out;
  }
  if (relative[0] == '/') {
    std::string_view rest = relative;
    const auto q = rest.find('?');
    if (q != std::string_view::npos) {
      out.query_ = std::string(rest.substr(q + 1));
      rest = rest.substr(0, q);
    }
    out.path_ = std::string(rest);
    return out;
  }
  // Relative to the current directory.
  const auto last_slash = path_.rfind('/');
  const std::string dir = path_.substr(0, last_slash + 1);
  std::string_view rest = relative;
  const auto q = rest.find('?');
  if (q != std::string_view::npos) {
    out.query_ = std::string(rest.substr(q + 1));
    rest = rest.substr(0, q);
  }
  out.path_ = dir + std::string(rest);
  return out;
}

std::string Url::origin() const {
  // Appends rather than chained operator+ to sidestep a GCC 12 -Wrestrict
  // false positive (PR 105329) that trips warnings-as-errors builds.
  std::string out = scheme_;
  out += "://";
  out += host_;
  if (port_ != default_port_for_scheme(scheme_)) {
    out += ':';
    out += std::to_string(port_);
  }
  return out;
}

std::string Url::default_cookie_path() const {
  // RFC 6265 §5.1.4: up to but not including the right-most '/'; "/" if the
  // path is empty or has no further slash.
  if (path_.empty() || path_[0] != '/') return "/";
  const auto last_slash = path_.rfind('/');
  if (last_slash == 0) return "/";
  return path_.substr(0, last_slash);
}

std::string Url::spec() const {
  std::string out = origin() + path_;
  if (!query_.empty()) out += "?" + query_;
  if (!fragment_.empty()) out += "#" + fragment_;
  return out;
}

bool same_site(const Url& a, const Url& b) {
  return !a.site().empty() && a.site() == b.site();
}

}  // namespace cg::net
