// Filter-list content blocking (EasyList style), the §2.1 baseline defense
// with behaviour of its own, implemented as an extension so
// bench_policy_matrix can set it beside the partitioning policies on the
// same corpus. It removes known tracker scripts wholesale: effective against
// listed domains, blind to the long tail, CNAME-cloaked scripts, and
// first-party proxies, and it takes the vendor's legitimate functionality
// down with it. The other §2.1 baselines are partitioning policies
// (src/policy/): third-party cookie blocking is the single-jar engines'
// cross-site rule, and storage partitioning is FPI/CHIPS.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "browser/extension.h"

namespace cg::baselines {

/// EasyList-style content blocker: drops script inclusions from, and
/// requests to, a fixed list of known tracker domains (eTLD+1).
class FilterListBlocker final : public browser::Extension {
 public:
  /// Curated list covering the ecosystem's major ad/tracking vendors —
  /// what a well-maintained filter list would know about. Long-tail and
  /// cloaked domains are deliberately absent.
  static std::vector<std::string> default_blocklist();

  explicit FilterListBlocker(
      std::vector<std::string> blocked_domains = default_blocklist());

  std::string name() const override { return "filter-list-blocker"; }

  bool allow_script_include(browser::Page& page,
                            const script::ExecContext& ctx) override;
  bool allow_request(browser::Page& page, const net::HttpRequest& request,
                     const script::ExecContext* initiator) override;

  struct Stats {
    std::uint64_t scripts_blocked = 0;
    std::uint64_t requests_blocked = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  bool is_blocked(std::string_view domain) const {
    return blocked_.find(std::string(domain)) != blocked_.end();
  }

  std::set<std::string> blocked_;
  Stats stats_;
};

}  // namespace cg::baselines
