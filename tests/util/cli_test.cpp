#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace minicost::util {
namespace {

Cli make_cli() {
  Cli cli("test", "test program");
  cli.add_flag("files", "100", "number of files");
  cli.add_flag("rate", "0.5", "learning rate");
  cli.add_flag("verbose", "false", "chatty output");
  cli.add_flag("name", "default", "a string");
  return cli;
}

TEST(CliTest, DefaultsApplyWithoutArguments) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.integer("files"), 100);
  EXPECT_DOUBLE_EQ(cli.real("rate"), 0.5);
  EXPECT_FALSE(cli.boolean("verbose"));
  EXPECT_EQ(cli.str("name"), "default");
}

TEST(CliTest, EqualsFormParses) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--files=250", "--rate=0.125"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.integer("files"), 250);
  EXPECT_DOUBLE_EQ(cli.real("rate"), 0.125);
}

TEST(CliTest, SpaceFormParses) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--name", "wiki"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.str("name"), "wiki");
}

TEST(CliTest, BareFlagIsBooleanTrue) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.boolean("verbose"));
}

TEST(CliTest, BareFlagBeforeAnotherFlag) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--verbose", "--files=7"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_TRUE(cli.boolean("verbose"));
  EXPECT_EQ(cli.integer("files"), 7);
}

TEST(CliTest, PositionalArgumentsCollected) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "input.txt", "--files=1", "output.txt"};
  ASSERT_TRUE(cli.parse(4, argv));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.positional()[1], "output.txt");
}

TEST(CliTest, UnknownFlagFailsParse) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(CliTest, HelpReturnsFalse) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(CliTest, UndeclaredAccessThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_THROW(cli.str("nope"), std::invalid_argument);
}

TEST(CliTest, BooleanAcceptsCommonSpellings) {
  for (const char* value : {"true", "1", "yes", "on"}) {
    Cli cli = make_cli();
    const std::string arg = std::string("--verbose=") + value;
    const char* argv[] = {"prog", arg.c_str()};
    ASSERT_TRUE(cli.parse(2, argv));
    EXPECT_TRUE(cli.boolean("verbose")) << value;
  }
}

/// Parses one `--flag=value` argument into a fresh make_cli().
Cli parsed(const std::string& arg) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", arg.c_str()};
  EXPECT_TRUE(cli.parse(2, argv));
  return cli;
}

/// Expects `read` to throw std::invalid_argument whose message names both
/// the flag and the offending value.
template <typename Read>
void expect_rejected(Read read, const std::string& flag,
                     const std::string& value) {
  try {
    read();
    ADD_FAILURE() << "--" << flag << "=" << value << " was accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--" + flag), std::string::npos) << what;
    EXPECT_NE(what.find("'" + value + "'"), std::string::npos) << what;
  }
}

TEST(CliTest, IntegerRejectsTrailingAndNonNumericText) {
  for (const char* value : {"12abc", "abc", "", "1.5", " 7", "99999999999999999999"}) {
    const Cli cli = parsed(std::string("--files=") + value);
    expect_rejected([&] { return cli.integer("files"); }, "files", value);
  }
  EXPECT_EQ(parsed("--files=-3").integer("files"), -3);
}

TEST(CliTest, SizeRejectsNegativeValues) {
  EXPECT_EQ(parsed("--files=0").size("files"), 0u);
  EXPECT_EQ(parsed("--files=4096").size("files"), 4096u);
  for (const char* value : {"-1", "-0x1", "12abc", "abc"}) {
    const Cli cli = parsed(std::string("--files=") + value);
    expect_rejected([&] { return cli.size("files"); }, "files", value);
  }
}

TEST(CliTest, SpaceFormNegativeValueIsAValue) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--files", "-1"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.integer("files"), -1);
  expect_rejected([&] { return cli.size("files"); }, "files", "-1");
}

TEST(CliTest, RealRejectsTrailingTextAndNonFinite) {
  EXPECT_DOUBLE_EQ(parsed("--rate=1e-3").real("rate"), 1e-3);
  for (const char* value : {"0.5x", "abc", "", "nan", "inf"}) {
    const Cli cli = parsed(std::string("--rate=") + value);
    expect_rejected([&] { return cli.real("rate"); }, "rate", value);
  }
}

TEST(CliTest, BooleanAcceptsFalseSpellingsAndRejectsOtherWords) {
  for (const char* value : {"false", "0", "no", "off"})
    EXPECT_FALSE(parsed(std::string("--verbose=") + value).boolean("verbose"))
        << value;
  for (const char* value : {"maybe", "TRUE", "2", ""}) {
    const Cli cli = parsed(std::string("--verbose=") + value);
    expect_rejected([&] { return cli.boolean("verbose"); }, "verbose", value);
  }
}

TEST(CliTest, GivenTracksTheCommandLineNotTheValue) {
  const Cli cli = parsed("--files=100");
  EXPECT_TRUE(cli.given("files"));  // set, even though to the default
  EXPECT_FALSE(cli.given("rate"));
  EXPECT_THROW(cli.given("nope"), std::invalid_argument);
}

TEST(CliTest, UsageMentionsEveryFlag) {
  Cli cli = make_cli();
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("--files"), std::string::npos);
  EXPECT_NE(usage.find("--rate"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
}

}  // namespace
}  // namespace minicost::util
