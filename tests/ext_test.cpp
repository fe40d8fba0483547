// Tests for extension-host utilities: stack attribution and the message bus.
#include <gtest/gtest.h>

#include "ext/attribution.h"
#include "ext/message_bus.h"

namespace cg::ext {
namespace {

webplat::StackTrace stack_of(std::initializer_list<webplat::StackFrame> fs) {
  webplat::StackTrace s;
  for (const auto& f : fs) s.push(f);
  return s;
}

TEST(AttributionTest, LastExternalFindsDeepestExternalFrame) {
  const auto stack = stack_of(
      {{"https://a.com/a.js", "a.com", "f", false},
       {"https://b.example.co.uk/b.js", "example.co.uk", "g", false}});
  const auto who = attribute_stack(stack);
  EXPECT_FALSE(who.unknown);
  EXPECT_EQ(who.script_url, "https://b.example.co.uk/b.js");
  EXPECT_EQ(who.domain, "example.co.uk");
}

TEST(AttributionTest, SkipsInlineTopFrame) {
  const auto stack = stack_of(
      {{"https://a.com/a.js", "a.com", "f", false}, {"", "", "inline", false}});
  const auto who = attribute_stack(stack);
  EXPECT_EQ(who.domain, "a.com");
}

TEST(AttributionTest, EmptyStackIsUnknown) {
  EXPECT_TRUE(attribute_stack(webplat::StackTrace{}).unknown);
}

TEST(AttributionTest, PureInlineStackIsUnknown) {
  const auto stack = stack_of({{"", "", "inline", false}});
  EXPECT_TRUE(attribute_stack(stack).unknown);
}

TEST(AttributionTest, DomainIsTheSiteTheFrameCarries) {
  // Attribution reads the frame's site and never parses its URL: a frame
  // with no site (its URL has no registrable domain) is unattributable.
  const auto who = attribute_stack(
      stack_of({{"https://cdn.Tracker.com/t.js", "tracker.com", "f", false}}));
  EXPECT_EQ(who.domain, "tracker.com");
  const auto bare = attribute_stack(stack_of({{"https://com/t.js", "", "f",
                                               false}}));
  EXPECT_TRUE(bare.unknown);
  EXPECT_EQ(bare.script_url, "https://com/t.js");
}

TEST(AttributionTest, AsyncFramesCountForLastExternal) {
  // Recovered async frame below an inline callback frame.
  const auto stack = stack_of(
      {{"https://tracker.com/t.js", "tracker.com", "schedule", true},
       {"", "", "cb", false}});
  const auto who = attribute_stack(stack, AttributionMode::kLastExternal);
  EXPECT_EQ(who.domain, "tracker.com");
}

TEST(AttributionTest, TopFrameOnlyIgnoresAsyncFrames) {
  const auto stack = stack_of(
      {{"https://tracker.com/t.js", "tracker.com", "schedule", true}});
  const auto who = attribute_stack(stack, AttributionMode::kTopFrameOnly);
  EXPECT_TRUE(who.unknown);
}

TEST(AttributionTest, TopFrameOnlyUsesTopWhenExternal) {
  const auto stack = stack_of({{"https://a.com/a.js", "a.com", "f", false},
                               {"https://b.com/b.js", "b.com", "g", false}});
  const auto who = attribute_stack(stack, AttributionMode::kTopFrameOnly);
  EXPECT_EQ(who.domain, "b.com");
}

TEST(MessageBusTest, RequestResponseRoundTrip) {
  MessageBus bus;
  bus.register_handler("lookup", [](const std::string& payload) {
    return payload == "_ga" ? "googletagmanager.com" : "";
  });
  EXPECT_EQ(bus.request("lookup", "_ga"), "googletagmanager.com");
  EXPECT_EQ(bus.request("lookup", "nope"), "");
  EXPECT_EQ(bus.round_trips(), 2u);
}

TEST(MessageBusTest, UnknownTopicReturnsEmpty) {
  MessageBus bus;
  EXPECT_EQ(bus.request("nothing", "x"), "");
}

TEST(MessageBusTest, PostIsFireAndForget) {
  MessageBus bus;
  int hits = 0;
  bus.register_handler("log", [&](const std::string&) {
    ++hits;
    return "";
  });
  bus.post("log", "a");
  bus.post("log", "b");
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(bus.posts(), 2u);
  EXPECT_EQ(bus.round_trips(), 0u);
  bus.reset_counters();
  EXPECT_EQ(bus.posts(), 0u);
}

}  // namespace
}  // namespace cg::ext
