#include "src/common/json_writer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace faascost {
namespace {

TEST(JsonWriter, FlatObject) {
  JsonWriter w;
  w.BeginObject();
  w.KV("name", "aws");
  w.KV("count", 3);
  w.KV("ok", true);
  w.EndObject();
  EXPECT_TRUE(w.balanced());
  EXPECT_EQ(w.str(), R"({"name":"aws","count":3,"ok":true})");
}

TEST(JsonWriter, NestedArraysAndObjects) {
  JsonWriter w;
  w.BeginObject();
  w.Key("rows");
  w.BeginArray();
  w.BeginObject();
  w.KV("x", 1);
  w.EndObject();
  w.BeginObject();
  w.KV("x", 2);
  w.EndObject();
  w.EndArray();
  w.Key("empty");
  w.BeginArray();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(), R"({"rows":[{"x":1},{"x":2}],"empty":[]})");
}

TEST(JsonWriter, ArrayOfScalars) {
  JsonWriter w;
  w.BeginArray();
  w.Value(1);
  w.Value(2.5);
  w.Value("three");
  w.Null();
  w.EndArray();
  EXPECT_EQ(w.str(), R"([1,2.5,"three",null])");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  JsonWriter w;
  w.BeginObject();
  w.KV("k", "a\"b\\c\n\t\x01");
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"k\":\"a\\\"b\\\\c\\n\\t\\u0001\"}");
}

TEST(JsonWriter, EscapesKeysLikeValues) {
  JsonWriter w;
  w.BeginObject();
  w.KV("q\"k", 1);
  w.KV("b\\k", 2);
  w.KV(std::string_view("c\r\x1f\0k", 5), 3);
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"q\\\"k\":1,\"b\\\\k\":2,\"c\\r\\u001f\\u0000k\":3}");
}

TEST(JsonWriter, EscapeOnlyAtTheEnds) {
  // A string whose only escape is its first or last byte still takes the
  // escaping path; one with none is copied as is, UTF-8 bytes included.
  JsonWriter w;
  w.BeginArray();
  w.Value("\"lead");
  w.Value("trail\\");
  w.Value("\x7f caf\xc3\xa9 ~");
  w.Value("");
  w.EndArray();
  EXPECT_EQ(w.str(), "[\"\\\"lead\",\"trail\\\\\",\"\x7f caf\xc3\xa9 ~\",\"\"]");
}

TEST(JsonWriter, DoublesRoundTripShortest) {
  // std::to_chars shortest form: integral doubles print without an exponent
  // or trailing zeros, and 0.1 prints as written.
  JsonWriter w;
  w.BeginArray();
  w.Value(0.1);
  w.Value(1.0);
  w.Value(-2.5e-5);
  w.EndArray();
  EXPECT_EQ(w.str(), "[0.1,1,-2.5e-05]");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Value(std::numeric_limits<double>::quiet_NaN());
  w.Value(std::numeric_limits<double>::infinity());
  w.Value(-std::numeric_limits<double>::infinity());
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,null]");
}

TEST(JsonWriter, IntegerWidths) {
  JsonWriter w;
  w.BeginArray();
  w.Value(std::numeric_limits<int64_t>::min());
  w.Value(std::numeric_limits<uint64_t>::max());
  w.EndArray();
  EXPECT_EQ(w.str(), "[-9223372036854775808,18446744073709551615]");
}

TEST(JsonWriter, BalancedTracksOpenScopes) {
  JsonWriter w;
  w.BeginObject();
  EXPECT_FALSE(w.balanced());
  w.Key("a");
  w.BeginArray();
  EXPECT_FALSE(w.balanced());
  w.EndArray();
  w.EndObject();
  EXPECT_TRUE(w.balanced());
}

TEST(JsonWriter, DeterministicAcrossInstances) {
  const auto build = [] {
    JsonWriter w;
    w.BeginObject();
    w.KV("pi", 3.141592653589793);
    w.KV("n", 42);
    w.EndObject();
    return w.str();
  };
  EXPECT_EQ(build(), build());
}

}  // namespace
}  // namespace faascost
