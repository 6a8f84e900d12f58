/**
 * @file
 * Tests for the hpe::api JSON value/parser/writer: canonical dumping
 * (the fingerprint substrate), exact 64-bit number round trips, and
 * strict parsing with located errors.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "api/json.hpp"

namespace hpe::api::json {
namespace {

Value
parseOk(const std::string &text)
{
    ParseError err;
    const auto v = parse(text, &err);
    EXPECT_TRUE(v.has_value()) << err.message << " at " << err.offset;
    return v.value_or(Value{});
}

std::string
parseFail(const std::string &text)
{
    ParseError err;
    const auto v = parse(text, &err);
    EXPECT_FALSE(v.has_value()) << "parsed: " << text;
    return err.message;
}

TEST(Json, DumpSortsObjectKeysCanonically)
{
    // Member order in the source text must not leak into the dump —
    // fingerprints hash these bytes.
    EXPECT_EQ(parseOk(R"({"b":1,"a":2,"c":3})").dump(),
              R"({"a":2,"b":1,"c":3})");
    EXPECT_EQ(parseOk(R"({"a":2,"c":3,"b":1})").dump(),
              R"({"a":2,"b":1,"c":3})");
}

TEST(Json, ScalarsRoundTrip)
{
    EXPECT_EQ(parseOk("null").dump(), "null");
    EXPECT_EQ(parseOk("true").dump(), "true");
    EXPECT_EQ(parseOk("false").dump(), "false");
    EXPECT_EQ(parseOk("0").dump(), "0");
    EXPECT_EQ(parseOk("-42").dump(), "-42");
    EXPECT_EQ(parseOk("\"hi\"").dump(), "\"hi\"");
    EXPECT_EQ(parseOk("[1,2,3]").dump(), "[1,2,3]");
}

TEST(Json, SixtyFourBitIntegersAreExact)
{
    // Seeds and digests are 64-bit; a double mantissa would corrupt them.
    const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
    const Value v = parseOk("18446744073709551615");
    EXPECT_EQ(v.asUint(), big);
    EXPECT_EQ(v.dump(), "18446744073709551615");

    const Value neg = parseOk("-9223372036854775808");
    EXPECT_EQ(neg.asInt(), std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(neg.dump(), "-9223372036854775808");
}

TEST(Json, IntegralDoublesDumpWithoutDecimalPoint)
{
    // 0.75 stays fractional; 1.0 dumps as "1" so a request built from
    // C++ doubles and one parsed from JSON integers dump identically.
    EXPECT_EQ(Value(0.75).dump(), "0.75");
    EXPECT_EQ(Value(1.0).dump(), "1");
    EXPECT_EQ(Value(0.0).dump(), "0");
    // Far outside int64 the exponent form is used, without a cast.
    EXPECT_EQ(Value(1e300).dump(), "1.0000000000000001e+300");
}

TEST(Json, StringEscapesRoundTrip)
{
    const Value v = parseOk(R"("a\"b\\c\n\tA")");
    EXPECT_EQ(v.asString(), "a\"b\\c\n\tA");
    // Control characters re-escape on dump.
    EXPECT_EQ(parseOk(v.dump()).asString(), v.asString());
}

TEST(Json, FindNavigatesObjects)
{
    const Value v = parseOk(R"({"outer":{"inner":7}})");
    const Value *outer = v.find("outer");
    ASSERT_NE(outer, nullptr);
    const Value *inner = outer->find("inner");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->asUint(), 7u);
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_EQ(inner->find("not-an-object"), nullptr);
}

TEST(Json, NumericAccessorsCrossConvert)
{
    EXPECT_DOUBLE_EQ(parseOk("7").asDouble(), 7.0);
    EXPECT_EQ(parseOk("7.0").asUint(), 7u);
    EXPECT_TRUE(parseOk("7").isNumber());
    EXPECT_FALSE(parseOk("\"7\"").isNumber());
}

TEST(Json, RejectsMalformedInput)
{
    parseFail("");
    parseFail("{");
    parseFail("[1,2,");
    parseFail(R"({"a":1,})");  // trailing comma
    parseFail(R"({'a':1})");   // single quotes
    parseFail("01");           // leading zero
    parseFail("1 2");          // trailing garbage
    parseFail("\"unterminated");
    parseFail("nul");
}

TEST(Json, ReportsErrorOffset)
{
    ParseError err;
    EXPECT_FALSE(parse(R"({"a":!})", &err).has_value());
    EXPECT_EQ(err.offset, 5u);
    EXPECT_FALSE(err.message.empty());
}

TEST(Json, DepthLimitStopsRecursion)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += "[";
    parseFail(deep);
}

} // namespace
} // namespace hpe::api::json
