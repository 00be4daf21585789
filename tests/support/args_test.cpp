#include "support/args.hpp"

#include <gtest/gtest.h>

namespace papc {
namespace {

Args parse(std::initializer_list<const char*> tokens) {
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), tokens.begin(), tokens.end());
    return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, KeyValuePairs) {
    const Args a = parse({"--n", "100", "--alpha", "1.5"});
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.get("n", ""), "100");
    EXPECT_EQ(a.get("alpha", ""), "1.5");
}

TEST(Args, EqualsSyntax) {
    const Args a = parse({"--n=42", "--name=test"});
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.get("n", ""), "42");
    EXPECT_EQ(a.get("name", ""), "test");
}

TEST(Args, Flags) {
    const Args a = parse({"--verbose", "--n", "5"});
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(a.get_flag("verbose"));
    EXPECT_FALSE(a.get_flag("quiet"));
    EXPECT_EQ(a.get("n", ""), "5");
}

TEST(Args, FlagWithExplicitValue) {
    const Args a = parse({"--quiet=true", "--loud=0"});
    EXPECT_TRUE(a.get_flag("quiet"));
    EXPECT_FALSE(a.get_flag("loud"));
}

TEST(Args, Defaults) {
    const Args a = parse({});
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.get("missing", "fallback"), "fallback");
    EXPECT_FALSE(a.has("missing"));
}

TEST(Args, MalformedInputReportsError) {
    const Args a = parse({"positional"});
    EXPECT_FALSE(a.ok());
    EXPECT_NE(a.error().find("positional"), std::string::npos);
}

TEST(Args, TrailingFlag) {
    const Args a = parse({"--n", "3", "--dry-run"});
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(a.get_flag("dry-run"));
}

TEST(Args, UnusedDetection) {
    const Args a = parse({"--used", "1", "--typo", "2"});
    ASSERT_TRUE(a.ok());
    (void)a.get("used", "");
    const auto unused = a.unused();
    ASSERT_EQ(unused.size(), 1U);
    EXPECT_EQ(unused[0], "typo");
}

TEST(Args, UnknownOptionErrorNamesTheTypo) {
    // The papc_cli regression: "--lamda 2" must be a hard error, not a
    // silently ignored default.
    const Args a = parse({"--lamda", "2", "--n", "100"});
    ASSERT_TRUE(a.ok());
    (void)a.get("n", "");
    (void)a.get("lambda", "");  // the *correct* spelling
    const std::string error = a.unknown_option_error();
    EXPECT_NE(error.find("unknown option"), std::string::npos);
    EXPECT_NE(error.find("--lamda"), std::string::npos);
    EXPECT_EQ(error.find("--n"), std::string::npos);
}

TEST(Args, UnknownOptionErrorEmptyWhenAllQueried) {
    const Args a = parse({"--n", "100"});
    ASSERT_TRUE(a.ok());
    (void)a.get("n", "");
    EXPECT_TRUE(a.unknown_option_error().empty());
}

TEST(Args, UnknownOptionErrorListsEveryTypo) {
    const Args a = parse({"--foo", "1", "--bar", "2"});
    ASSERT_TRUE(a.ok());
    const std::string error = a.unknown_option_error();
    EXPECT_NE(error.find("unknown options"), std::string::npos);
    EXPECT_NE(error.find("--foo"), std::string::npos);
    EXPECT_NE(error.find("--bar"), std::string::npos);
}

TEST(Args, NegativeNumberValue) {
    const Args a = parse({"--offset", "-5"});
    ASSERT_TRUE(a.ok());
    // "-5" does not start with "--", so it binds as the value.
    EXPECT_EQ(a.get("offset", ""), "-5");
}

}  // namespace
}  // namespace papc
