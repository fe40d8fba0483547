// The browser's first-party cookie jar: RFC 6265 storage model.
//
// This is the resource the whole paper is about. Scripts in the main frame
// share one jar per top-level site; CookieGuard does NOT change this jar —
// it interposes on the API boundary above it and filters what each script
// origin may see (paper §6).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cookies/cookie.h"
#include "net/set_cookie.h"
#include "net/url.h"

namespace cg::cookies {

/// Which API surface performs a jar operation. Script APIs cannot create
/// HttpOnly cookies nor read/overwrite existing ones (RFC 6265 §8.6).
enum class JarApi { kHttp, kScript };

/// Outcome of a store attempt, rich enough for the measurement extension to
/// classify the event (create vs overwrite vs delete) and diff attributes.
struct CookieChange {
  enum class Type {
    kCreated,
    kOverwritten,
    kDeleted,     // stored with expiry <= now while a live cookie existed
    kExpiredNoop,  // expiry <= now and no matching live cookie
    kRejected,    // failed a storage-model rule
  };
  Type type = Type::kRejected;
  /// State before the operation (set for kOverwritten / kDeleted).
  std::optional<Cookie> previous;
  /// State after the operation (set for kCreated / kOverwritten).
  std::optional<Cookie> current;
  /// Human-readable reason for kRejected.
  std::string reject_reason;
};

/// The request context of one jar read (RFC 6265 §5.4). SameSite and
/// top-level-navigation flags are not modelled: retrieval does not
/// enforce SameSite.
struct Retrieval {
  const net::Url& url;
  TimeMillis now = 0;
  JarApi api = JarApi::kScript;
  /// Refreshes last_access on the matched cookies, as a browser read does.
  /// Observer reads (the measurement census) pass false: a read that
  /// refreshed last_access would perturb the LRU eviction order it
  /// observes.
  bool touch = true;
};

/// Appends `cookie`'s "name=value" to a "; "-joined cookie string (the
/// document.cookie and HTTP Cookie header serialisation).
void append_cookie_pair(std::string& out, const Cookie& cookie);

class CookieJar {
 public:
  /// RFC 6265 §6.1 minimum capabilities, enforced like Chromium: oversized
  /// name+value pairs are rejected; beyond the per-jar cookie limit the
  /// least-recently-accessed cookies are evicted (expired ones first).
  static constexpr std::size_t kMaxPairBytes = 4096;
  static constexpr std::size_t kMaxCookies = 180;

  /// Applies the RFC 6265 §5.3 storage algorithm for a cookie received from
  /// `source_url` (the response URL for HTTP, the document URL for scripts).
  /// `source` overrides the recorded CookieSource (e.g. kCookieStore for
  /// cookieStore.set, which is also a script API).
  CookieChange set(const net::Url& source_url,
                   const net::ParsedSetCookie& parsed, TimeMillis now,
                   JarApi api,
                   std::optional<CookieSource> source = std::nullopt);

  /// Convenience for script writes: parses `cookie_line` exactly like a
  /// Set-Cookie value (document.cookie assignment grammar is the same).
  CookieChange set_from_string(const net::Url& document_url,
                               std::string_view cookie_line, TimeMillis now);

  /// The jar's one read: visits every cookie matching `request` per RFC 6265
  /// §5.4 (domain-match, path-match, secure channel check; HttpOnly hidden
  /// from JarApi::kScript) as `const Cookie&`, longer paths first, then
  /// earlier creation. With `request.touch` the matched cookies'
  /// last_access is set to `request.now` before the first visit. Sorts
  /// match indices in a fixed-size buffer: no cookie is copied and nothing
  /// is allocated. `visit` must not modify the jar.
  template <typename Visitor>
  void retrieve(const Retrieval& request, Visitor&& visit) {
    MatchOrder order{};
    const std::size_t matched = match(request, order);
    for (std::size_t i = 0; i < matched; ++i) {
      visit(static_cast<const Cookie&>(cookies_[order[i]]));
    }
  }

  /// The exact string document.cookie returns: "a=1; b=2".
  std::string document_cookie_string(const net::Url& url, TimeMillis now);

  /// Looks up a live cookie by identity.
  std::optional<Cookie> find(std::string_view name, std::string_view domain,
                             std::string_view path) const;

  /// Removes a cookie by identity; true if one was removed.
  bool remove(std::string_view name, std::string_view domain,
              std::string_view path);

  /// Drops expired cookies; returns how many were evicted.
  std::size_t purge_expired(TimeMillis now);

  std::size_t size() const { return cookies_.size(); }
  const std::vector<Cookie>& all() const { return cookies_; }
  void clear() { cookies_.clear(); }

 private:
  // set() evicts down to kMaxCookies before it returns, so every match of
  // a read fits in one MatchOrder.
  static_assert(kMaxCookies <= 256, "match indices are one byte");
  using MatchOrder = std::array<std::uint8_t, kMaxCookies>;

  /// Fills `order` with the indices of the cookies matching `request`, in
  /// §5.4 order, touching them when request.touch; returns their count.
  std::size_t match(const Retrieval& request, MatchOrder& order);

  std::vector<Cookie> cookies_;
  std::uint64_t next_index_ = 0;
};

}  // namespace cg::cookies
