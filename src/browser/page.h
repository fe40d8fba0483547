// A loaded page: main frame, event loop, script host, and the cookie /
// network API surface scripts call into.
//
// Page implements script::PageServices; every call funnels through the
// installed extensions' filter/veto/observe hooks, so the measurement
// extension and CookieGuard interpose exactly where a real content script
// wrapping document.cookie would.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "browser/browser.h"
#include "browser/document_spec.h"
#include "browser/extension.h"
#include "net/http.h"
#include "net/url.h"
#include "script/exec_context.h"
#include "script/page_services.h"
#include "webplat/event_loop.h"
#include "webplat/frame.h"
#include "webplat/stack_trace.h"

namespace cg::browser {

class Page final : public script::PageServices {
 public:
  Page(Browser& browser, net::Url url);
  /// Drops the partitions of the cross-origin frames this page ran.
  ~Page() override;
  Page(const Page&) = delete;
  Page& operator=(const Page&) = delete;

  /// Fetches the document, parses the DOM, runs static scripts, drains the
  /// event loop, and records the lifecycle timings. Returns false when the
  /// document fetch failed in transport (load_failure() says why); the page
  /// is then unusable.
  bool load();

  /// Why load() returned false (kNone while the page is healthy).
  fault::FailureClass load_failure() const { return load_failure_; }

  const net::Url& url() const { return url_; }
  Browser& browser() { return browser_; }
  webplat::Frame& main_frame() { return main_frame_; }
  webplat::EventLoop& loop() { return loop_; }
  const webplat::PageTimings& timings() const { return timings_; }
  const DocumentSpec& spec() const { return spec_; }
  const webplat::StackTrace& current_stack() const { return stack_; }

  /// Simulated user scroll: advances time and lets scheduled work run.
  void simulate_scroll();

  /// Executes a catalog script on demand as a direct inclusion (used by
  /// breakage probes and tests).
  void run_catalog_script(std::string_view script_id);

  /// Runs `body` as if it were code of `ctx`'s script: pushes the proper
  /// stack frame so interception layers attribute correctly.
  void run_as(const script::ExecContext& ctx,
              const std::function<void(script::PageServices&)>& body);

  /// Creates a subframe at `url` in the main frame.
  webplat::Frame& create_subframe(const net::Url& url);

  /// Runs `body` inside `frame` under SOP rules (paper §3, Figure 1):
  /// same-origin frames share the first-party jar and document; cross-origin
  /// frames get their own document, and their cookie calls reach the policy
  /// engine as a frame context (CookieAccessContext::frame_origin) — they
  /// cannot reach the main frame's cookies or DOM. This is why the paper's
  /// adversary must be *in the main frame*.
  void run_in_frame(webplat::Frame& frame, const script::ExecContext& ctx,
                    const std::function<void(script::PageServices&)>& body);

  // ---- script::PageServices ------------------------------------------
  std::string document_cookie_read(const script::ExecContext& ctx) override;
  void document_cookie_write(const script::ExecContext& ctx,
                             std::string_view cookie_line) override;
  void cookie_store_get_all(
      const script::ExecContext& ctx,
      std::function<void(std::vector<script::StoreCookie>)> callback) override;
  void cookie_store_get(
      const script::ExecContext& ctx, std::string_view name,
      std::function<void(std::optional<script::StoreCookie>)> callback)
      override;
  void cookie_store_set(const script::ExecContext& ctx, std::string_view name,
                        std::string_view value) override;
  void cookie_store_delete(const script::ExecContext& ctx,
                           std::string_view name) override;
  void send_request(const script::ExecContext& ctx,
                    const net::Url& url) override;
  void inject_script(const script::ExecContext& includer,
                     std::string_view script_id) override;
  void set_timeout(const script::ExecContext& ctx, TimeMillis delay_ms,
                   std::function<void()> callback,
                   std::string_view helper_script_url) override;
  webplat::Document& main_document() override {
    return main_frame_.document();
  }
  TimeMillis now() const override;
  script::Rng& rng() override { return browser_.rng(); }

 private:
  /// RAII stack-frame push/pop for script execution.
  class FrameGuard;

  /// Builds the ExecContext for a catalog script on this page; the parsed
  /// script URL lands in `script_url` (nullopt for inline scripts) for the
  /// script fetch to reuse.
  script::ExecContext make_context(const script::ScriptSpec& spec,
                                   script::Inclusion inclusion,
                                   const script::ExecContext* includer,
                                   std::optional<net::Url>& script_url) const;

  void include_script(std::string_view script_id, script::Inclusion inclusion,
                      const script::ExecContext* includer);

  /// Advances the clock by the API base cost plus extension overhead.
  void charge_api_call();

  /// Sends a request through the network layer with cookie attachment,
  /// request/headers notifications, and policy-gated Set-Cookie processing.
  net::HttpResponse fetch(net::HttpRequest request,
                          const script::ExecContext* initiator);

  /// Policy context for an access scoped to `subject` on this page: the
  /// top-level site and the cross-site bit. Refers to `subject`.
  policy::CookieAccessContext cookie_ctx(const net::Url& subject,
                                         cookies::JarApi api) const;

  /// Retrieval through the active policy: consults every partition
  /// key_for_read names and visits, in order, each retrieved cookie the
  /// per-cookie visibility filter passes (CookieJar::retrieve's visitor
  /// contract), preserving the single-jar path byte-for-byte under
  /// NoDefense. `now` is passed explicitly so fetch() can pin the
  /// request-entry timestamp. Defined in page.cpp, its only user.
  template <typename Visitor>
  void policy_read(const policy::CookieAccessContext& ctx, TimeMillis now,
                   Visitor&& visit);

  /// Storage through the active policy, recorded as coming from `source`;
  /// returns the jar's CookieChange, or nullopt when the policy refused
  /// the store (defense-caused refusals are tallied in
  /// Browser::policy_stats and `policy.*` metrics).
  std::optional<cookies::CookieChange> policy_store(
      const net::Url& source_url, const net::ParsedSetCookie& parsed,
      policy::CookieAccessContext ctx, TimeMillis now,
      cookies::CookieSource source);

  /// The one script cookie read, for both APIs: the policy read of the
  /// page URL (only cookies named `name` when it is set, for
  /// cookieStore.get), then every extension's filter_cookie_read, then
  /// every on_cookie_read. The pairs view the jar and are overwritten by
  /// the next read; callers copy out what they keep.
  const std::vector<CookiePair>& script_read(
      const script::ExecContext& ctx, cookies::CookieSource api,
      std::optional<std::string_view> name = std::nullopt);

  /// The one script cookie write, for both APIs: every extension's
  /// allow_cookie_write veto on `name`, then `parse()` (after the veto, so
  /// a vetoed line is never parsed), policy_store and
  /// on_script_cookie_change. A cookie `parse` rejects reaches the
  /// observers as a kRejected change. Defined in page.cpp, its only user.
  template <typename Parse>
  void script_write(const script::ExecContext& ctx, cookies::CookieSource api,
                    std::string_view name, Parse&& parse);

  /// Charges the API call, captures the caller's stack, and queues `body`
  /// as a microtask that runs under that stack — how every cookieStore
  /// promise settles. Defined in page.cpp, its only user.
  template <typename Body>
  void post_cookie_store(Body&& body);

  class FrameServices;

  Browser& browser_;
  net::Url url_;
  /// eTLD+1 of the page URL — Firefox's firstPartyDomain, CHIPS's
  /// partition key.
  std::string top_level_site_;
  webplat::Frame main_frame_;
  webplat::EventLoop loop_;
  webplat::StackTrace stack_;
  DocumentSpec spec_;
  webplat::PageTimings timings_;
  fault::FailureClass load_failure_ = fault::FailureClass::kNone;
  TimeMillis nav_start_ = 0;
  int inclusion_depth_ = 0;  // guards against inject cycles
  /// script_read's reused result buffer.
  std::vector<CookiePair> read_pairs_;
  /// Origins of the cross-origin frames this page ran; the destructor drops
  /// their policy::frame_partition_key partitions, so frame cookies live
  /// for one page (Safari-ITP/Total-Cookie-Protection style, §2.1).
  std::set<std::string> frame_origins_;
};

}  // namespace cg::browser
