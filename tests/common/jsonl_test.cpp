/**
 * @file
 * The JSONL field reader shared by the ledger, flight-dump and
 * profile loaders: both separator spacings, escapes, arrays, and the
 * rule that a number must parse completely.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/jsonl.hpp"
#include "common/parse.hpp"

namespace nox {
namespace {

TEST(Jsonl, ReadsFieldsWithOrWithoutSpaceAfterColon)
{
    const std::string tight = R"({"c":12,"k":"flit_send","nic":0})";
    const std::string spaced = R"({"c": 12, "k": "flit_send"})";
    for (const std::string &line : {tight, spaced}) {
        std::int64_t c = 0;
        std::string k;
        EXPECT_TRUE(jsonl::find(line, "c", c)) << line;
        EXPECT_EQ(c, 12);
        EXPECT_TRUE(jsonl::find(line, "k", k)) << line;
        EXPECT_EQ(k, "flit_send");
    }
    std::uint64_t nic = 7;
    EXPECT_TRUE(jsonl::find(tight, "nic", nic));
    EXPECT_EQ(nic, 0u);
    EXPECT_FALSE(jsonl::find(spaced, "nic", nic)) << "absent key";
}

TEST(Jsonl, NumbersMustParseCompletely)
{
    const std::string line =
        R"({"a": 12x, "b": "12", "c": -3, "d": 0.25, "e": })";
    std::uint64_t u = 99;
    std::int64_t i = 99;
    double d = 0.0;
    EXPECT_FALSE(jsonl::find(line, "a", u));
    EXPECT_FALSE(jsonl::find(line, "b", u)) << "a string is no number";
    EXPECT_FALSE(jsonl::find(line, "c", u)) << "negative unsigned";
    EXPECT_FALSE(jsonl::find(line, "e", i)) << "empty value";
    EXPECT_EQ(u, 99u) << "a failed read leaves the output alone";
    EXPECT_TRUE(jsonl::find(line, "c", i));
    EXPECT_EQ(i, -3);
    EXPECT_TRUE(jsonl::find(line, "d", d));
    EXPECT_DOUBLE_EQ(d, 0.25);
}

TEST(Jsonl, EscapeRoundTripsThroughFind)
{
    const std::string raw = R"(say "hi" \ bye)";
    const std::string line =
        "{\"s\": \"" + jsonl::escape(raw) + "\", \"t\": 1}";
    std::string s;
    ASSERT_TRUE(jsonl::find(line, "s", s));
    EXPECT_EQ(s, raw);
    EXPECT_FALSE(jsonl::find(R"({"s": "open)", "s", s))
        << "unterminated string";
}

TEST(Jsonl, ArraysOfStringsAndNumbers)
{
    std::vector<std::string> items;
    ASSERT_TRUE(jsonl::find(R"({"h": ["00ff", "a1"], "x": 1})", "h",
                            items));
    EXPECT_EQ(items, (std::vector<std::string>{"00ff", "a1"}));
    ASSERT_TRUE(jsonl::find(R"({"implicated":[3,14]})", "implicated",
                            items));
    EXPECT_EQ(items, (std::vector<std::string>{"3", "14"}));
    ASSERT_TRUE(jsonl::find(R"({"implicated":[]})", "implicated", items));
    EXPECT_TRUE(items.empty());
    EXPECT_FALSE(jsonl::find(R"({"h": ["a", "b")", "h", items));
    std::int64_t v = 0;
    EXPECT_TRUE(parseWhole("14", v));
    EXPECT_EQ(v, 14);
    EXPECT_FALSE(parseWhole("14x", v));
}

} // namespace
} // namespace nox
