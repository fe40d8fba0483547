#include "policy/partition_policy.h"

namespace cg::policy {
namespace {

constexpr std::string_view kThirdPartyPhasedOut =
    "third-party cookies are phased out";
constexpr std::string_view kUnpartitionedThirdParty =
    "unpartitioned third-party cookie blocked";

cookies::PartitionKey fpi_key(std::string_view first_party_domain) {
  cookies::PartitionKey key = "fpi:";
  key += first_party_domain;
  return key;
}

cookies::PartitionKey chips_key(std::string_view top_level_site) {
  cookies::PartitionKey key = "chips:";
  key += top_level_site;
  return key;
}

/// Status-quo single jar: everything first-party lands in the default
/// partition; cross-site traffic carries no cookies (the simulator models a
/// post-third-party-cookie browser, §1). A cross-origin subframe gets its
/// own per-page partition keyed by frame origin — checked before the
/// cross-site gate, because SOP, not the third-party rule, scopes frame
/// script access. CookieGuard runs on this engine too: it changes the API
/// boundary above the jar, never the jar itself (§6).
class NoDefense final : public PartitionPolicy {
 public:
  StoreDecision key_for_store(const CookieAccessContext& ctx) const override {
    if (!ctx.frame_origin.empty()) {
      return StoreDecision::ok(frame_partition_key(ctx.frame_origin));
    }
    if (ctx.cross_site) {
      return StoreDecision::blocked(kThirdPartyPhasedOut);
    }
    return StoreDecision::ok(cookies::PartitionKey());
  }

  ReadDecision key_for_read(const CookieAccessContext& ctx) const override {
    if (!ctx.frame_origin.empty()) {
      return ReadDecision::ok(
          PartitionKeys(frame_partition_key(ctx.frame_origin)));
    }
    if (ctx.cross_site) {
      return ReadDecision::blocked(kThirdPartyPhasedOut);
    }
    return ReadDecision::ok(PartitionKeys(cookies::PartitionKey()));
  }

  bool visible(const cookies::Cookie&,
               const CookieAccessContext&) const override {
    return true;
  }
};

/// Firefox First-Party Isolation: every cookie jar is double-keyed by the
/// top-level site (the firstPartyDomain origin attribute, SNIPPETS.md
/// snippets 1-2). Cross-site embeds still get cookies — isolated into the
/// embedding site's partition rather than blocked — and an access that
/// cannot name its first party is an error with Firefox's exact message.
class FirstPartyIsolation final : public PartitionPolicy {
 public:
  StoreDecision key_for_store(const CookieAccessContext& ctx) const override {
    if (ctx.top_level_site.empty()) {
      return StoreDecision::blocked(kFpiMissingAttributeError,
                                    /*defense_block_in=*/true);
    }
    return StoreDecision::ok(fpi_key(ctx.top_level_site));
  }

  ReadDecision key_for_read(const CookieAccessContext& ctx) const override {
    if (ctx.top_level_site.empty()) {
      return ReadDecision::blocked(kFpiMissingAttributeError,
                                   /*defense_block_in=*/true);
    }
    return ReadDecision::ok(PartitionKeys(fpi_key(ctx.top_level_site)));
  }

  bool visible(const cookies::Cookie&,
               const CookieAccessContext&) const override {
    return true;  // partition separation IS the isolation
  }
};

/// RFC6265bis + CHIPS: first-party cookies stay in the default partition;
/// cookies carrying `Partitioned` land in a per-top-level-site partition;
/// cross-site contexts may only store/see partitioned cookies (snippet 3's
/// retrieve/store(url, partition_key, flags) shape).
class Chips final : public PartitionPolicy {
 public:
  StoreDecision key_for_store(const CookieAccessContext& ctx) const override {
    if (ctx.partitioned_attribute) {
      return StoreDecision::ok(chips_key(ctx.top_level_site));
    }
    if (ctx.cross_site) {
      // Cross-site HTTP cookies are already dead in the baseline browser;
      // only script stores in embedded contexts are newly blocked by CHIPS.
      return StoreDecision::blocked(
          kUnpartitionedThirdParty,
          /*defense_block_in=*/ctx.api == cookies::JarApi::kScript);
    }
    return StoreDecision::ok(cookies::PartitionKey());
  }

  ReadDecision key_for_read(const CookieAccessContext& ctx) const override {
    if (ctx.cross_site) {
      return ReadDecision::ok(PartitionKeys(chips_key(ctx.top_level_site)));
    }
    // Top-level contexts see their unpartitioned cookies plus the cookies
    // partitioned to themselves.
    return ReadDecision::ok(PartitionKeys(cookies::PartitionKey(),
                                          chips_key(ctx.top_level_site)));
  }

  bool visible(const cookies::Cookie& cookie,
               const CookieAccessContext& ctx) const override {
    // Cross-site, only Partitioned cookies exist; belt and braces on top of
    // the partition-key separation.
    return !ctx.cross_site || cookie.partitioned;
  }
};

}  // namespace

std::string_view to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kNone:
      return "none";
    case PolicyKind::kCookieGuard:
      return "cookieguard";
    case PolicyKind::kFirstPartyIsolation:
      return "fpi";
    case PolicyKind::kChips:
      return "chips";
  }
  return "none";
}

std::optional<PolicyKind> parse_policy(std::string_view name) {
  if (name == "none") return PolicyKind::kNone;
  if (name == "cookieguard") return PolicyKind::kCookieGuard;
  if (name == "fpi") return PolicyKind::kFirstPartyIsolation;
  if (name == "chips") return PolicyKind::kChips;
  return std::nullopt;
}

cookies::PartitionKey frame_partition_key(std::string_view frame_origin) {
  std::string key = "frame:";
  key += frame_origin;
  return key;
}

const PartitionPolicy& engine_for(PolicyKind kind) {
  // Stateless const singletons: shareable across crawl workers, no mutable
  // state (determinism contract D4).
  static const NoDefense none;
  static const FirstPartyIsolation fpi;
  static const Chips chips;
  switch (kind) {
    case PolicyKind::kNone:
    case PolicyKind::kCookieGuard:
      return none;
    case PolicyKind::kFirstPartyIsolation:
      return fpi;
    case PolicyKind::kChips:
      return chips;
  }
  return none;
}

}  // namespace cg::policy
