// Unit tests for the web-platform substrate: event loop, stack traces, DOM,
// frames.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "webplat/dom.h"
#include "webplat/event_loop.h"
#include "webplat/frame.h"
#include "webplat/stack_trace.h"

namespace cg::webplat {
namespace {

// ----------------------------------------------------------- EventLoop ----

class EventLoopTest : public ::testing::Test {
 protected:
  SimClock clock_;
  EventLoop loop_{&clock_};
};

TEST_F(EventLoopTest, RunsTasksInDueTimeOrder) {
  std::vector<int> order;
  loop_.post_task([&] { order.push_back(2); }, 200);
  loop_.post_task([&] { order.push_back(1); }, 100);
  loop_.post_task([&] { order.push_back(3); }, 300);
  EXPECT_EQ(loop_.run_until_idle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(EventLoopTest, AdvancesClockToTaskDueTime) {
  const TimeMillis start = clock_.now();
  loop_.post_task([] {}, 500);
  loop_.run_until_idle();
  EXPECT_EQ(clock_.now(), start + 500);
}

TEST_F(EventLoopTest, FifoForSameDueTime) {
  std::vector<int> order;
  loop_.post_task([&] { order.push_back(1); }, 50);
  loop_.post_task([&] { order.push_back(2); }, 50);
  loop_.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(EventLoopTest, MicrotasksRunBeforeNextMacrotask) {
  std::vector<std::string> order;
  loop_.post_task([&] {
    order.push_back("macro1");
    loop_.post_microtask([&] { order.push_back("micro"); });
  });
  loop_.post_task([&] { order.push_back("macro2"); }, 10);
  loop_.run_until_idle();
  EXPECT_EQ(order,
            (std::vector<std::string>{"macro1", "micro", "macro2"}));
}

TEST_F(EventLoopTest, TasksCanScheduleMoreTasks) {
  int runs = 0;
  loop_.post_task([&] {
    ++runs;
    loop_.post_task([&] { ++runs; }, 10);
  });
  EXPECT_EQ(loop_.run_until_idle(), 2u);
  EXPECT_EQ(runs, 2);
}

TEST_F(EventLoopTest, SchedulingStackAvailableDuringTask) {
  StackTrace scheduling;
  scheduling.push({"https://tracker.com/t.js", "tracker.com", "fire", false});
  bool checked = false;
  loop_.post_task(
      [&] {
        const auto& stack = loop_.current_task_scheduling_stack();
        ASSERT_EQ(stack.depth(), 1u);
        EXPECT_EQ(stack.frames()[0].script_url, "https://tracker.com/t.js");
        checked = true;
      },
      0, scheduling);
  loop_.run_until_idle();
  EXPECT_TRUE(checked);
}

TEST_F(EventLoopTest, RunOneReturnsFalseWhenIdle) {
  EXPECT_FALSE(loop_.run_one());
  EXPECT_TRUE(loop_.idle());
}

TEST_F(EventLoopTest, NegativeDelayTreatedAsImmediate) {
  const TimeMillis start = clock_.now();
  loop_.post_task([] {}, -100);
  loop_.run_until_idle();
  EXPECT_EQ(clock_.now(), start);
}

// ---------------------------------------------------------- StackTrace ----

TEST(StackTraceTest, LastExternalSkipsInlineFrames) {
  StackTrace stack;
  stack.push({"https://a.com/a.js", "a.com", "outer", false});
  stack.push({"", "", "inlineHandler", false});
  EXPECT_EQ(stack.last_external_script_url(), "https://a.com/a.js");
}

TEST(StackTraceTest, LastExternalPrefersMostRecent) {
  StackTrace stack;
  stack.push({"https://a.com/a.js", "a.com", "outer", false});
  stack.push({"https://b.com/b.js", "b.com", "inner", false});
  EXPECT_EQ(stack.last_external_script_url(), "https://b.com/b.js");
}

TEST(StackTraceTest, EmptyStackHasNoAttribution) {
  StackTrace stack;
  EXPECT_FALSE(stack.last_external_script_url().has_value());
  EXPECT_FALSE(stack.top_frame_url().has_value());
}

TEST(StackTraceTest, PrependAsyncMarksRecoveredFrames) {
  StackTrace scheduling;
  scheduling.push({"https://a.com/a.js", "a.com", "schedule", false});
  StackTrace current;
  current.push({"https://helper.com/h.js", "helper.com", "cb", false});
  current.prepend_async(scheduling);
  ASSERT_EQ(current.depth(), 2u);
  EXPECT_TRUE(current.frames()[0].async);
  EXPECT_FALSE(current.frames()[1].async);
  // Attribution still sees the helper as most recent external frame.
  EXPECT_EQ(current.last_external_script_url(), "https://helper.com/h.js");
}

TEST(StackTraceTest, AsyncRecoveryEnablesAttributionOfBareCallbacks) {
  StackTrace scheduling;
  scheduling.push(
      {"https://tracker.com/t.js", "tracker.com", "schedule", false});
  StackTrace callback_stack;  // bare closure: no frames of its own
  callback_stack.prepend_async(scheduling);
  EXPECT_EQ(callback_stack.last_external_script_url(),
            "https://tracker.com/t.js");
}

TEST(StackTraceTest, PushPopSymmetry) {
  StackTrace stack;
  stack.push({"https://a.com/a.js", "a.com", "f", false});
  stack.push({"https://b.com/b.js", "b.com", "g", false});
  stack.pop();
  EXPECT_EQ(stack.last_external_script_url(), "https://a.com/a.js");
  stack.pop();
  EXPECT_TRUE(stack.empty());
  stack.pop();  // popping empty is a no-op
  EXPECT_TRUE(stack.empty());
}

// ----------------------------------------------------------------- DOM ----

class DomTest : public ::testing::Test {
 protected:
  Document doc_{net::Url::must_parse("https://example.com/")};
};

TEST_F(DomTest, CreateAndAppendTracksCreator) {
  auto& div = doc_.create_element("div", "tracker.com");
  doc_.append_child(doc_.body(), div, "tracker.com");
  EXPECT_EQ(div.creator_domain(), "tracker.com");
  ASSERT_EQ(doc_.body().children().size(), 1u);
  EXPECT_EQ(div.parent(), &doc_.body());
}

TEST_F(DomTest, MutationObserverSeesCrossDomainModification) {
  auto& div = doc_.create_element("div", "example.com");
  doc_.append_child(doc_.body(), div, "example.com");

  std::vector<DomMutation> mutations;
  doc_.add_mutation_observer(
      [&](const DomMutation& m) { mutations.push_back(m); });

  doc_.set_text(div, "hijacked", "tracker.com");
  ASSERT_EQ(mutations.size(), 1u);
  EXPECT_EQ(mutations[0].kind, DomMutation::Kind::kSetText);
  EXPECT_EQ(mutations[0].modifier_domain, "tracker.com");
  EXPECT_EQ(mutations[0].target_creator_domain, "example.com");
}

TEST_F(DomTest, RemoveDetachesFromParent) {
  auto& div = doc_.create_element("div", "");
  doc_.append_child(doc_.body(), div, "");
  doc_.remove_node(div, "cleaner.com");
  EXPECT_TRUE(doc_.body().children().empty());
  EXPECT_EQ(div.parent(), nullptr);
}

TEST_F(DomTest, AttributesAndStyle) {
  auto& node = doc_.create_element("a", "");
  doc_.set_attribute(node, "href", "/page", "");
  doc_.set_style(node, "color:red", "ads.com");
  EXPECT_EQ(node.attribute("href"), "/page");
  EXPECT_EQ(node.attribute("style"), "color:red");
  EXPECT_TRUE(node.has_attribute("href"));
  EXPECT_FALSE(node.has_attribute("id"));
}

TEST_F(DomTest, ElementsByTag) {
  doc_.create_element("script", "");
  doc_.create_element("script", "tracker.com");
  doc_.create_element("div", "");
  EXPECT_EQ(doc_.elements_by_tag("script").size(), 2u);
  EXPECT_EQ(doc_.elements_by_tag("iframe").size(), 0u);
}

// --------------------------------------------------------------- Frame ----

TEST(FrameTest, MainFrameAndSubframes) {
  Frame main(net::Url::must_parse("https://example.com/"), nullptr);
  EXPECT_TRUE(main.is_main_frame());
  auto& sub = main.create_subframe(
      net::Url::must_parse("https://ads.tracker.com/frame"));
  EXPECT_FALSE(sub.is_main_frame());
  EXPECT_EQ(sub.parent(), &main);
}

TEST(FrameTest, SopIsolatesCrossOriginFrames) {
  Frame main(net::Url::must_parse("https://example.com/"), nullptr);
  auto& cross = main.create_subframe(
      net::Url::must_parse("https://tracker.com/ad"));
  auto& same = main.create_subframe(
      net::Url::must_parse("https://example.com/widget"));
  EXPECT_FALSE(cross.same_origin(main));
  EXPECT_TRUE(same.same_origin(main));
}

}  // namespace
}  // namespace cg::webplat
