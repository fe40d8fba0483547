#include "net/psl.h"

#include <algorithm>
#include <array>
#include <string>

namespace cg::net {
namespace {

// Embedded public-suffix subset.
constexpr std::array<std::string_view, 58> kSuffixes = {
    // Generic TLDs used throughout the corpus.
    "com", "org", "net", "io", "co", "ai", "de", "fr", "jp", "ru", "uk",
    "us", "eu", "info", "biz", "tv", "me", "app", "dev", "cloud", "media",
    "agency", "online", "shop", "store", "site", "xyz", "news", "blog",
    "edu", "gov", "mil", "int", "ac",
    // Multi-label public suffixes.
    "co.uk", "org.uk", "ac.uk", "gov.uk", "co.jp", "ne.jp", "or.jp",
    "com.au", "net.au", "org.au", "com.br", "com.cn", "com.tr", "co.in",
    "co.kr", "com.mx", "co.za",
    // Private-section suffixes (sites hosted on shared platforms).
    "github.io", "gitlab.io", "netlify.app", "herokuapp.com",
    "blogspot.com", "myshopify.com", "amazonaws.com",
};

// kSuffixes in sorted order, for binary search.
constexpr auto kSortedSuffixes = [] {
  auto sorted = kSuffixes;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}();

bool is_listed_suffix(std::string_view s) {
  return std::binary_search(kSortedSuffixes.begin(), kSortedSuffixes.end(),
                            s);
}

bool is_ip_literal(std::string_view host) {
  return !host.empty() &&
         host.find_first_not_of("0123456789.") == std::string_view::npos &&
         std::count(host.begin(), host.end(), '.') == 3;
}

bool is_ascii_upper(unsigned char c) { return c >= 'A' && c <= 'Z'; }

// `s` lower-cased. Hosts from Url::parse are already lowercase, so `s`
// itself is returned unless it has an upper-case byte; only then is a
// lowered copy made, into `buf`.
std::string_view lowered(std::string_view s, std::string& buf) {
  if (std::none_of(s.begin(), s.end(), is_ascii_upper)) return s;
  buf.assign(s);
  std::transform(buf.begin(), buf.end(), buf.begin(), [](unsigned char c) {
    return static_cast<char>(is_ascii_upper(c) ? c - 'A' + 'a' : c);
  });
  return buf;
}

// Returns the length (in bytes) of the public suffix of lower-case `host`.
// Walks the label boundaries left to right, so the first listed candidate
// is the longest matching suffix. With no listed match, the PSL fallback
// rule "*" makes the last label the public suffix.
std::size_t suffix_length(std::string_view host) {
  std::size_t start = 0;
  while (true) {
    if (is_listed_suffix(host.substr(start))) return host.size() - start;
    const auto dot = host.find('.', start);
    if (dot == std::string_view::npos) return host.size() - start;
    start = dot + 1;
  }
}

}  // namespace

bool is_public_suffix(std::string_view host) {
  std::string buf;
  const std::string_view lower = lowered(host, buf);
  return !lower.empty() && suffix_length(lower) == lower.size();
}

std::string etld_plus_one(std::string_view host) {
  std::string buf;
  std::string_view lower = lowered(host, buf);
  while (!lower.empty() && lower.back() == '.') lower.remove_suffix(1);
  if (lower.empty()) return {};
  if (is_ip_literal(lower)) return std::string(lower);

  const std::size_t suffix_len = suffix_length(lower);
  if (suffix_len >= lower.size()) return {};  // bare public suffix

  // Strip "<suffix>" plus the preceding dot, then take the last label of
  // what remains as the "+1".
  const std::string_view rest = lower.substr(0, lower.size() - suffix_len - 1);
  const auto dot = rest.rfind('.');
  const std::size_t start = (dot == std::string_view::npos) ? 0 : dot + 1;
  return std::string(lower.substr(start));
}

bool same_site(std::string_view host_a, std::string_view host_b) {
  const std::string a = etld_plus_one(host_a);
  return !a.empty() && a == etld_plus_one(host_b);
}

bool domain_matches(std::string_view host, std::string_view domain) {
  std::string host_buf;
  std::string domain_buf;
  const std::string_view h = lowered(host, host_buf);
  std::string_view d = lowered(domain, domain_buf);
  if (!d.empty() && d.front() == '.') d.remove_prefix(1);
  if (h == d) return true;
  return h.size() > d.size() && h.ends_with(d) &&
         h[h.size() - d.size() - 1] == '.' && !is_ip_literal(h);
}

}  // namespace cg::net
