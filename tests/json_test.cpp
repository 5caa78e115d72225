// Unit tests for the minimal JSON parser/serializer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "common/json.h"

namespace nsflow {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(Json::Parse("null").is_null());
  EXPECT_TRUE(Json::Parse("true").AsBool());
  EXPECT_FALSE(Json::Parse("false").AsBool());
  EXPECT_DOUBLE_EQ(Json::Parse("3.25").AsDouble(), 3.25);
  EXPECT_DOUBLE_EQ(Json::Parse("-17").AsDouble(), -17.0);
  EXPECT_DOUBLE_EQ(Json::Parse("6.02e23").AsDouble(), 6.02e23);
  EXPECT_EQ(Json::Parse("\"hello\"").AsString(), "hello");
}

TEST(JsonParseTest, EscapeSequences) {
  EXPECT_EQ(Json::Parse(R"("a\nb\t\"q\"\\")").AsString(), "a\nb\t\"q\"\\");
  EXPECT_EQ(Json::Parse(R"("A")").AsString(), "A");
  EXPECT_EQ(Json::Parse(R"("é")").AsString(), "\xc3\xa9");  // é in UTF-8.
}

TEST(JsonParseTest, NestedStructures) {
  const Json doc = Json::Parse(R"({
    "workload": "NVSA",
    "loop_count": 2,
    "ops": [{"name": "conv1", "gemm": {"m": 64, "n": 147, "k": 102400}}]
  })");
  EXPECT_EQ(doc.At("workload").AsString(), "NVSA");
  EXPECT_EQ(doc.At("loop_count").AsInt(), 2);
  EXPECT_EQ(doc.At("ops").size(), 1u);
  EXPECT_EQ(doc.At("ops").At(0).At("gemm").At("k").AsInt(), 102400);
}

TEST(JsonParseTest, EmptyContainers) {
  EXPECT_EQ(Json::Parse("[]").size(), 0u);
  EXPECT_EQ(Json::Parse("{}").size(), 0u);
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_THROW(Json::Parse(""), ParseError);
  EXPECT_THROW(Json::Parse("{"), ParseError);
  EXPECT_THROW(Json::Parse("[1,]"), ParseError);
  EXPECT_THROW(Json::Parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(Json::Parse("\"unterminated"), ParseError);
  EXPECT_THROW(Json::Parse("tru"), ParseError);
  EXPECT_THROW(Json::Parse("1 2"), ParseError);  // Trailing garbage.
  EXPECT_THROW(Json::Parse("\"\\u00g0\""), ParseError);
}

TEST(JsonParseTest, TypeMismatchThrows) {
  const Json doc = Json::Parse("{\"a\": 1}");
  EXPECT_THROW(doc.At("a").AsString(), ParseError);
  EXPECT_THROW(doc.At("missing"), ParseError);
  EXPECT_THROW(doc.At("a").AsArray(), ParseError);
  EXPECT_THROW(Json::Parse("1.5").AsInt(), ParseError);
}

TEST(JsonDumpTest, CompactRoundTrip) {
  const std::string text =
      R"({"array":{"count":16,"height":32,"width":16},"name":"NVSA"})";
  const Json doc = Json::Parse(text);
  EXPECT_EQ(doc.Dump(), text);
}

TEST(JsonDumpTest, RoundTripPreservesValue) {
  JsonObject obj;
  obj["pi"] = Json(3.14159);
  obj["n"] = Json(std::int64_t{42});
  obj["s"] = Json("line1\nline2");
  obj["list"] = Json(JsonArray{Json(1), Json(true), Json(nullptr)});
  const Json original{std::move(obj)};
  EXPECT_EQ(Json::Parse(original.Dump()), original);
  EXPECT_EQ(Json::Parse(original.Dump(2)), original);
}

TEST(JsonDumpTest, IntegersPrintWithoutDecimals) {
  EXPECT_EQ(Json(std::int64_t{272000000}).Dump(), "272000000");
  EXPECT_EQ(Json(16.0).Dump(), "16");
}

/// The number format Json::Dump has always written: plain integers below
/// 1e15 in magnitude, printf's "%.17g" for everything else.
std::string ReferenceNumber(double d) {
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(d));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

std::string Appended(double d) {
  std::string out;
  AppendJsonNumber(out, d);
  return out;
}

TEST(JsonDumpTest, NumberFormatMatchesPrintfOnEdgeValues) {
  const double edges[] = {
      0.1,
      1e15 - 0.5,
      1e15,
      -1e15,
      1e15 + 2.0,
      1e16,
      -0.0,
      0.0,
      5e-324,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0025 * 1e6,               // µs-scale timestamps, as the trace
      0.004 * 1e6 - 0.0025 * 1e6,  // export computes them.
      1.2345678901234567e3,
      3599.999999 * 1e6,
      (0.1 + 0.2) * 1e6,
      -123.456,
  };
  for (const double d : edges) {
    EXPECT_EQ(Appended(d), ReferenceNumber(d)) << d;
    EXPECT_EQ(Json(d).Dump(), ReferenceNumber(d)) << d;
  }
}

TEST(JsonDumpTest, NumberFormatMatchesPrintfOnRandomDoubles) {
  std::mt19937_64 rng(20240601);
  for (int i = 0; i < 200000; ++i) {
    // Random sign, mantissa and exponent across (almost) the whole finite
    // range, plus µs-scale timestamps of runs up to an hour long.
    std::uint64_t bits = rng();
    const std::uint64_t exponent = (bits >> 52) & 0x7ff;
    if (exponent == 0x7ff) {
      bits ^= std::uint64_t{1} << 62;  // Fold NaN/inf back into range.
    }
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    ASSERT_EQ(Appended(d), ReferenceNumber(d)) << d;
    const double ts_us =
        std::ldexp(static_cast<double>(rng() >> 11), -53) * 3600.0 * 1e6;
    ASSERT_EQ(Appended(ts_us), ReferenceNumber(ts_us)) << ts_us;
  }
}

TEST(JsonDumpTest, ControlCharactersUseUnicodeEscapes) {
  const std::string raw = "a\x01" "b\x1f" "\"q\\\n\r\t\x7f";
  const std::string expected = R"("a\u0001b\u001f\"q\\\n\r\t)" "\x7f\"";
  std::string appended;
  AppendJsonString(appended, raw);
  EXPECT_EQ(appended, expected);
  EXPECT_EQ(Json(raw).Dump(), expected);
  EXPECT_EQ(Json::Parse(expected).AsString(), raw);
}

TEST(JsonDumpTest, IndentedOutputIsStable) {
  const Json doc = Json::Parse(R"({"b": [1, 2], "a": 3})");
  const std::string pretty = doc.Dump(2);
  // std::map ordering: keys sorted -> "a" before "b"; diffable output.
  EXPECT_LT(pretty.find("\"a\""), pretty.find("\"b\""));
  EXPECT_NE(pretty.find("\n"), std::string::npos);
}

TEST(JsonAccessorsTest, GetOrDefaults) {
  const Json doc = Json::Parse(R"({"x": 5, "s": "v"})");
  EXPECT_DOUBLE_EQ(doc.GetNumberOr("x", 0.0), 5.0);
  EXPECT_DOUBLE_EQ(doc.GetNumberOr("y", 7.5), 7.5);
  EXPECT_EQ(doc.GetStringOr("s", "d"), "v");
  EXPECT_EQ(doc.GetStringOr("t", "d"), "d");
  EXPECT_TRUE(doc.Contains("x"));
  EXPECT_FALSE(doc.Contains("zz"));
}

TEST(JsonAccessorsTest, MutationViaIndexOperator) {
  Json doc;
  doc["a"]["b"] = Json(1);
  EXPECT_EQ(doc.At("a").At("b").AsInt(), 1);
}

}  // namespace
}  // namespace nsflow
