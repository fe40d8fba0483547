// Extension hook interface — the browser's embedder API for extensions.
//
// Mirrors the capabilities the paper's two extensions rely on:
//  * wrapping document.cookie / cookieStore at the page boundary
//    (Object.defineProperty in the real implementation, §4.1/§6.2),
//  * webRequest.onHeadersReceived for Set-Cookie capture,
//  * Chrome-Debugger-style Network.requestWillBeSent with initiator stacks.
//
// Hooks receive both the capture-time JS stack (what a real extension can
// see) and the ground-truth ExecContext (what only the simulator knows).
// Production hooks must attribute from the stack alone; the ground truth is
// for evaluating attribution accuracy.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "cookies/cookie.h"
#include "cookies/cookie_jar.h"
#include "net/http.h"
#include "script/exec_context.h"
#include "webplat/stack_trace.h"

namespace cg::browser {

class Page;
class Browser;

/// One cookie as a script read hands it out: its name and value, views
/// into the jar. They stay valid while the hook runs, so a hook that sees
/// them must not write cookies.
struct CookiePair {
  std::string_view name;
  std::string_view value;
};

class Extension {
 public:
  virtual ~Extension() = default;

  virtual std::string name() const = 0;

  /// A fresh browser visit begins (new jar): reset per-visit state.
  virtual void on_visit_start(Browser& browser) { (void)browser; }
  /// A navigation committed; content scripts would be injected here.
  virtual void on_page_start(Page& page) { (void)page; }
  /// Page reached its load event.
  virtual void on_page_finished(Page& page) { (void)page; }

  // ---- cookie API boundary (content-script layer) ----------------------
  // Every script cookie call crosses these hooks once, tagged by the API
  // it came through: kDocumentCookie (the getter/setter) or kCookieStore
  // (get/getAll/set/delete).

  /// Filter the cookies a read returns, in jar order. Called in
  /// registration order; each extension receives the previous one's
  /// output. Only names and values are visible, as to a real wrapper.
  virtual void filter_cookie_read(Page& page, const script::ExecContext& ctx,
                                  const webplat::StackTrace& stack,
                                  cookies::CookieSource api,
                                  std::vector<CookiePair>& cookies) {
    (void)page;
    (void)ctx;
    (void)stack;
    (void)api;
    (void)cookies;
  }

  /// Veto a write (document.cookie assignment, cookieStore.set/delete) of
  /// the cookie `name`. Returning false blocks it before the jar sees it.
  virtual bool allow_cookie_write(Page& page, const script::ExecContext& ctx,
                                  const webplat::StackTrace& stack,
                                  cookies::CookieSource api,
                                  std::string_view name) {
    (void)page;
    (void)ctx;
    (void)stack;
    (void)api;
    (void)name;
    return true;
  }

  // ---- observations ----------------------------------------------------

  /// A read returned `count` cookies, after every filter.
  virtual void on_cookie_read(Page& page, const script::ExecContext& ctx,
                              const webplat::StackTrace& stack,
                              cookies::CookieSource api, std::size_t count) {
    (void)page;
    (void)ctx;
    (void)stack;
    (void)api;
    (void)count;
  }

  /// A script-initiated jar change completed (document.cookie or
  /// cookieStore). Blocked writes never reach this hook.
  virtual void on_script_cookie_change(Page& page,
                                       const script::ExecContext& ctx,
                                       const webplat::StackTrace& stack,
                                       const cookies::CookieChange& change,
                                       cookies::CookieSource api) {
    (void)page;
    (void)ctx;
    (void)stack;
    (void)change;
    (void)api;
  }

  /// webRequest.onHeadersReceived: response arrived; `changes` are the jar
  /// updates its Set-Cookie headers caused.
  virtual void on_headers_received(
      Page& page, const net::HttpRequest& request,
      const net::HttpResponse& response,
      const std::vector<cookies::CookieChange>& changes) {
    (void)page;
    (void)request;
    (void)response;
    (void)changes;
  }

  /// Veto an outgoing request before it leaves (content blockers). Vetoed
  /// requests are dropped silently: no response, no observer notifications.
  virtual bool allow_request(Page& page, const net::HttpRequest& request,
                             const script::ExecContext* initiator) {
    (void)page;
    (void)request;
    (void)initiator;
    return true;
  }

  /// Network.requestWillBeSent: outgoing request with initiator stack.
  /// `initiator` is nullptr for browser-initiated (navigation) requests.
  virtual void on_request_will_be_sent(Page& page,
                                       const net::HttpRequest& request,
                                       const script::ExecContext* initiator,
                                       const webplat::StackTrace& stack) {
    (void)page;
    (void)request;
    (void)initiator;
    (void)stack;
  }

  /// Veto a script inclusion before it executes (content blockers work
  /// here; CookieGuard deliberately does not).
  virtual bool allow_script_include(Page& page,
                                    const script::ExecContext& ctx) {
    (void)page;
    (void)ctx;
    return true;
  }

  /// A script entered the main frame (static or dynamic inclusion).
  virtual void on_script_included(Page& page,
                                  const script::ExecContext& ctx) {
    (void)page;
    (void)ctx;
  }

  // ---- cost model --------------------------------------------------------

  /// Simulated per-intercepted-API-call overhead this extension adds
  /// (content-script wrapper + messaging round trip), in milliseconds.
  virtual TimeMillis api_call_overhead_ms() const { return 0; }
};

}  // namespace cg::browser
