#include "cookies/cookie_jar.h"

#include <algorithm>

#include "net/psl.h"
#include "net/set_cookie.h"

namespace cg::cookies {
namespace {

std::string_view source_name(CookieSource s) {
  switch (s) {
    case CookieSource::kHttpHeader:
      return "http";
    case CookieSource::kDocumentCookie:
      return "document.cookie";
    case CookieSource::kCookieStore:
      return "cookieStore";
  }
  return "http";
}

// RFC 6265 §5.1.4 path-match.
bool path_matches(std::string_view request_path, std::string_view cookie_path) {
  if (request_path == cookie_path) return true;
  if (request_path.starts_with(cookie_path)) {
    if (cookie_path.ends_with('/')) return true;
    if (request_path.size() > cookie_path.size() &&
        request_path[cookie_path.size()] == '/') {
      return true;
    }
  }
  return false;
}

}  // namespace

std::string_view to_string(CookieSource s) { return source_name(s); }

CookieChange CookieJar::set(const net::Url& source_url,
                            const net::ParsedSetCookie& parsed, TimeMillis now,
                            JarApi api, std::optional<CookieSource> source) {
  CookieChange change;

  Cookie cookie;
  cookie.name = parsed.name;
  cookie.value = parsed.value;
  cookie.secure = parsed.secure;
  cookie.http_only = parsed.http_only;
  cookie.partitioned = parsed.partitioned;
  cookie.same_site = parsed.same_site;
  cookie.creation_time = now;
  cookie.last_access = now;
  cookie.source = source.value_or(api == JarApi::kHttp
                                      ? CookieSource::kHttpHeader
                                      : CookieSource::kDocumentCookie);

  // RFC 6265 §6.1: reject oversized name+value pairs.
  if (parsed.name.size() + parsed.value.size() > kMaxPairBytes) {
    change.reject_reason = "cookie exceeds size limit";
    return change;
  }

  // RFC 6265 §8.6 / 6265bis: non-HTTP APIs cannot create HttpOnly cookies.
  if (api == JarApi::kScript && parsed.http_only) {
    change.reject_reason = "script cannot set HttpOnly cookie";
    return change;
  }

  // Secure-attribute cookies may only be set from secure URLs (6265bis §5.5).
  if (parsed.secure && !source_url.is_secure()) {
    change.reject_reason = "Secure cookie from non-secure context";
    return change;
  }

  // CHIPS: a Partitioned cookie must also carry Secure.
  if (parsed.partitioned && !parsed.secure) {
    change.reject_reason = "Partitioned cookie without Secure";
    return change;
  }

  // Domain attribute handling (RFC 6265 §5.3 steps 4-6).
  if (!parsed.domain.empty()) {
    if (net::is_public_suffix(parsed.domain) &&
        parsed.domain != source_url.host()) {
      change.reject_reason = "Domain attribute is a public suffix";
      return change;
    }
    if (!net::domain_matches(source_url.host(), parsed.domain)) {
      change.reject_reason = "Domain attribute does not domain-match host";
      return change;
    }
    cookie.domain = parsed.domain;
    cookie.host_only = false;
  } else {
    cookie.domain = source_url.host();
    cookie.host_only = true;
  }

  cookie.path =
      parsed.path.empty() ? source_url.default_cookie_path() : parsed.path;

  // Expiry: Max-Age wins over Expires (RFC 6265 §5.3 step 3).
  if (parsed.max_age_ms) {
    cookie.expires = now + *parsed.max_age_ms;
  } else if (parsed.expires) {
    cookie.expires = *parsed.expires;
  }

  // Find an existing cookie with the same identity.
  auto existing = std::find_if(cookies_.begin(), cookies_.end(),
                               [&](const Cookie& c) {
                                 return c.same_identity(cookie);
                               });

  // Scripts may not evict or replace an HttpOnly cookie.
  if (existing != cookies_.end() && existing->http_only &&
      api == JarApi::kScript) {
    change.reject_reason = "script cannot replace HttpOnly cookie";
    return change;
  }

  const bool lands_expired = cookie.expired(now);

  if (existing != cookies_.end()) {
    change.previous = *existing;
    if (lands_expired) {
      // Setting with a past expiry is the web's delete operation.
      cookies_.erase(existing);
      change.type = CookieChange::Type::kDeleted;
      return change;
    }
    cookie.creation_time = existing->creation_time;  // §5.3 step 11.3
    cookie.creation_index = existing->creation_index;
    *existing = cookie;
    change.type = CookieChange::Type::kOverwritten;
    change.current = cookie;
    return change;
  }

  if (lands_expired) {
    change.type = CookieChange::Type::kExpiredNoop;
    return change;
  }

  cookie.creation_index = next_index_++;
  cookies_.push_back(cookie);

  // Evict past the jar limit: expired first, then least recently accessed.
  if (cookies_.size() > kMaxCookies) {
    purge_expired(now);
    while (cookies_.size() > kMaxCookies) {
      auto victim = std::min_element(
          cookies_.begin(), cookies_.end(),
          [](const Cookie& a, const Cookie& b) {
            if (a.last_access != b.last_access) {
              return a.last_access < b.last_access;
            }
            return a.creation_index < b.creation_index;
          });
      cookies_.erase(victim);
    }
  }

  change.type = CookieChange::Type::kCreated;
  change.current = cookie;
  return change;
}

CookieChange CookieJar::set_from_string(const net::Url& document_url,
                                        std::string_view cookie_line,
                                        TimeMillis now) {
  const auto parsed = net::parse_set_cookie(cookie_line);
  if (!parsed) {
    CookieChange change;
    change.reject_reason = "unparseable cookie string";
    return change;
  }
  return set(document_url, *parsed, now, JarApi::kScript);
}

namespace {

// RFC 6265 §5.4 steps 1-2: does `c` match `request`?
bool retrieval_match(const Cookie& c, const Retrieval& request) {
  const net::Url& url = request.url;
  if (c.expired(request.now)) return false;
  if (c.http_only && request.api == JarApi::kScript) return false;
  if (c.secure && !url.is_secure()) return false;
  if (c.host_only) {
    if (url.host() != c.domain) return false;
  } else if (!net::domain_matches(url.host(), c.domain)) {
    return false;
  }
  return path_matches(url.path(), c.path);
}

}  // namespace

void append_cookie_pair(std::string& out, const Cookie& cookie) {
  if (!out.empty()) out += "; ";
  out += cookie.name;
  out += '=';
  out += cookie.value;
}

std::size_t CookieJar::match(const Retrieval& request, MatchOrder& order) {
  std::size_t matched = 0;
  for (std::size_t i = 0; i < cookies_.size(); ++i) {
    Cookie& c = cookies_[i];
    if (!retrieval_match(c, request)) continue;
    if (request.touch) c.last_access = request.now;
    order[matched++] = static_cast<std::uint8_t>(i);
  }
  // §5.4 sort: longer paths first, then earlier creation. creation_index
  // is unique per jar, so the order is total.
  std::sort(order.begin(), order.begin() + matched,
            [this](std::uint8_t ia, std::uint8_t ib) {
              const Cookie& a = cookies_[ia];
              const Cookie& b = cookies_[ib];
              if (a.path.size() != b.path.size()) {
                return a.path.size() > b.path.size();
              }
              if (a.creation_time != b.creation_time) {
                return a.creation_time < b.creation_time;
              }
              return a.creation_index < b.creation_index;
            });
  return matched;
}

std::string CookieJar::document_cookie_string(const net::Url& url,
                                              TimeMillis now) {
  std::string out;
  retrieve({url, now, JarApi::kScript},
           [&out](const Cookie& c) { append_cookie_pair(out, c); });
  return out;
}

std::optional<Cookie> CookieJar::find(std::string_view name,
                                      std::string_view domain,
                                      std::string_view path) const {
  for (const auto& c : cookies_) {
    if (c.name == name && c.domain == domain && c.path == path) return c;
  }
  return std::nullopt;
}

bool CookieJar::remove(std::string_view name, std::string_view domain,
                       std::string_view path) {
  const auto count = std::erase_if(cookies_, [&](const Cookie& c) {
    return c.name == name && c.domain == domain && c.path == path;
  });
  return count > 0;
}

std::size_t CookieJar::purge_expired(TimeMillis now) {
  return std::erase_if(cookies_,
                       [&](const Cookie& c) { return c.expired(now); });
}

}  // namespace cg::cookies
