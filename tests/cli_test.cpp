#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "cli/flags.h"

namespace cg::cli {
namespace {

/// Parses `args` as the arguments after a program name.
Flags parse(std::vector<const char*> args, const FlagSpec& spec) {
  args.insert(args.begin(), "prog");
  return Flags::parse("prog", static_cast<int>(args.size()), args.data(), 1,
                      spec);
}

TEST(CliParseTest, IntRejectsAnythingButTheWholeNumber) {
  EXPECT_EQ(parse_int("42", 0, 100), 42);
  EXPECT_EQ(parse_int("-3", -5, 5), -3);
  EXPECT_EQ(parse_int("2147483647", 0, INT_MAX), INT_MAX);
  for (const char* text : {"abc", "12zz", "x2", "", " 5", "5 ", "1.0"}) {
    EXPECT_FALSE(parse_int(text, 0, INT_MAX)) << text;
  }
}

TEST(CliParseTest, IntRejectsOutOfRange) {
  EXPECT_FALSE(parse_int("0", 1, INT_MAX));
  EXPECT_FALSE(parse_int("-1", 0, INT_MAX));
  EXPECT_FALSE(parse_int("2147483648", 0, INT_MAX));
  EXPECT_FALSE(parse_int("99999999999999999999", 0, INT_MAX));
  EXPECT_FALSE(parse_int("65", 2, 64));
}

TEST(CliParseTest, U64TakesDecimalOrHex) {
  EXPECT_EQ(parse_u64("12345"), 12345u);
  EXPECT_EQ(parse_u64("0x1F"), 31u);
  EXPECT_EQ(parse_u64("0XC00C1E"), 0xC00C1Eu);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  for (const char* text : {"abc", "12zz", "0x", "0xg", "-1", "0x-1", "",
                           "18446744073709551616"}) {
    EXPECT_FALSE(parse_u64(text)) << text;
  }
}

TEST(CliParseTest, DoubleIsFiniteAndNonNegative) {
  EXPECT_EQ(parse_double("1.5"), 1.5);
  EXPECT_EQ(parse_double("0"), 0.0);
  EXPECT_EQ(parse_double("1000"), 1000.0);
  for (const char* text : {"fast", "1.5x", "-1", "inf", "nan", "", " 2"}) {
    EXPECT_FALSE(parse_double(text)) << text;
  }
}

TEST(CliFlagsTest, ValuesSwitchesAndPositionals) {
  const Flags flags =
      parse({"--sites", "20", "--guard", "FILE", "--sites", "30"},
            {.values = {"sites"}, .switches = {"guard"}, .positionals = 1});
  EXPECT_TRUE(flags.has("guard"));
  EXPECT_FALSE(flags.has("stream"));
  EXPECT_EQ(flags.get_int("sites", 0, 1), 30);  // lookups read the last
  EXPECT_EQ(flags.all("sites"), (std::vector<std::string>{"20", "30"}));
  ASSERT_EQ(flags.positionals().size(), 1u);
  EXPECT_EQ(flags.positionals()[0], "FILE");
  EXPECT_EQ(flags.get("json", "none"), "none");
}

TEST(CliFlagsTest, FlagBeatsEnvBeatsDefault) {
  const FlagSpec spec{.values = {"threads"}};
  ::unsetenv("CG_CLI_TEST_THREADS");
  EXPECT_EQ(parse({}, spec).get_int("threads", 5, 0, INT_MAX,
                                    "CG_CLI_TEST_THREADS"),
            5);
  ::setenv("CG_CLI_TEST_THREADS", "7", 1);
  EXPECT_EQ(parse({}, spec).get_int("threads", 5, 0, INT_MAX,
                                    "CG_CLI_TEST_THREADS"),
            7);
  const Flags flags = parse({"--threads", "3"}, spec);
  EXPECT_EQ(flags.get_int("threads", 5, 0, INT_MAX, "CG_CLI_TEST_THREADS"), 3);
  EXPECT_EQ(flags.find("threads", "CG_CLI_TEST_THREADS")->source, "--threads");
  ::unsetenv("CG_CLI_TEST_THREADS");
}

TEST(CliFlagsTest, PolicyFlagBeatsEnv) {
  const FlagSpec spec{.values = {"policy"}};
  ::setenv("CG_CLI_TEST_POLICY", "fpi", 1);
  EXPECT_EQ(policy_kind(parse({}, spec), "CG_CLI_TEST_POLICY"),
            policy::PolicyKind::kFirstPartyIsolation);
  EXPECT_EQ(policy_kind(parse({"--policy", "chips"}, spec),
                        "CG_CLI_TEST_POLICY"),
            policy::PolicyKind::kChips);
  ::unsetenv("CG_CLI_TEST_POLICY");
  EXPECT_EQ(policy_kind(parse({}, spec)), policy::PolicyKind::kNone);
}

TEST(CliFlagsDeathTest, UnknownFlagExits2NamingIt) {
  EXPECT_EXIT(parse({"--sites", "20", "--thread", "4"},
                    {.values = {"sites", "threads"}}),
              ::testing::ExitedWithCode(2), "unknown flag --thread");
}

TEST(CliFlagsDeathTest, MissingValueExits2NamingTheFlag) {
  const FlagSpec spec{.values = {"json", "sites"}};
  EXPECT_EXIT(parse({"--json"}, spec), ::testing::ExitedWithCode(2),
              "--json needs a value");
  EXPECT_EXIT(parse({"--json", "--sites", "2"}, spec),
              ::testing::ExitedWithCode(2), "--json needs a value");
}

TEST(CliFlagsDeathTest, SwitchTakesNoValue) {
  EXPECT_EXIT(parse({"--guard", "5"}, {.switches = {"guard"}}),
              ::testing::ExitedWithCode(2),
              "expected 0 bare argument\\(s\\), got \"5\"");
}

TEST(CliFlagsDeathTest, MalformedNumberExits2NamingItsSource) {
  const FlagSpec spec{.values = {"sites", "evo-seed"}};
  EXPECT_EXIT(parse({"--sites", "abc"}, spec).get_int("sites", 1, 1),
              ::testing::ExitedWithCode(2), "--sites must be an integer");
  EXPECT_EXIT(parse({"--evo-seed", "12zz"}, spec).get_u64("evo-seed", 0),
              ::testing::ExitedWithCode(2), "--evo-seed must be");
  ::setenv("CG_CLI_TEST_SITES", "x2", 1);
  EXPECT_EXIT(parse({}, spec).get_int("sites", 1, 1, INT_MAX,
                                      "CG_CLI_TEST_SITES"),
              ::testing::ExitedWithCode(2), "CG_CLI_TEST_SITES must be");
  EXPECT_EXIT(env_int("CG_CLI_TEST_SITES", 1, 1), ::testing::ExitedWithCode(2),
              "CG_CLI_TEST_SITES must be");
  ::setenv("CG_CLI_TEST_SITES", "fast", 1);
  EXPECT_EXIT(env_double("CG_CLI_TEST_SITES", 0), ::testing::ExitedWithCode(2),
              "CG_CLI_TEST_SITES must be a non-negative number");
  ::unsetenv("CG_CLI_TEST_SITES");
}

TEST(CliFlagsDeathTest, BadPolicyAndTraceDetailExit2) {
  EXPECT_EXIT(policy_kind(parse({"--policy", "cg"}, {.values = {"policy"}})),
              ::testing::ExitedWithCode(2), "--policy must be none");
  EXPECT_EXIT(open_trace(parse({"--trace-detail", "ful"},
                               {.values = {"trace", "trace-detail"}})),
              ::testing::ExitedWithCode(2),
              "--trace-detail must be crawl or full");
}

TEST(CliFlagsTest, NoTraceFlagMeansNoRecorder) {
  const TraceFile trace =
      open_trace(parse({}, {.values = {"trace", "trace-detail"}}));
  EXPECT_EQ(trace.recorder, nullptr);
  EXPECT_EQ(trace.out, nullptr);
}

}  // namespace
}  // namespace cg::cli
