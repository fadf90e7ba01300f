// Tests for the one JSON reader and the two writers in
// perfeng/common/json.hpp: escapes in both directions, line numbers in
// errors, exact unsigned integers, the nesting cap, strict grammar, and the
// shortest round-tripping number writer.
#include "perfeng/common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "perfeng/common/error.hpp"

namespace {

using pe::JsonValue;
using Kind = pe::JsonValue::Kind;

std::string parse_error(const std::string& text,
                        std::size_t first_line = 1) {
  try {
    (void)pe::json_parse(text, "doc.json", first_line);
  } catch (const pe::Error& e) {
    return e.what();
  }
  return {};
}

TEST(JsonEscape, HandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(pe::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(pe::json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(pe::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonParse, DecodesEveryEscapeJsonDefines) {
  const JsonValue v =
      pe::json_parse(R"("q\" b\\ s\/ \b\f\n\r\t A\u001f")", "s");
  ASSERT_EQ(v.kind, Kind::kString);
  EXPECT_EQ(v.text, "q\" b\\ s/ \b\f\n\r\t A\x1f");
}

TEST(JsonParse, ReadsBackEveryAsciiCharacterTheEscaperWrites) {
  std::string all;
  for (int c = 1; c < 128; ++c) all.push_back(static_cast<char>(c));
  EXPECT_EQ(pe::json_parse(pe::json_quote(all), "s").text, all);
}

TEST(JsonParse, RejectsEscapesItCannotDecode) {
  EXPECT_NE(parse_error(R"("\x")").find("unsupported escape"),
            std::string::npos);
  EXPECT_FALSE(parse_error(R"("\u00e9")").empty());  // not below 0x80
  EXPECT_FALSE(parse_error(R"("\u12")").empty());    // truncated
  EXPECT_FALSE(parse_error("\"\\").empty());
  // UTF-8 bytes themselves pass through unchanged.
  EXPECT_EQ(pe::json_parse("\"caf\xc3\xa9\"", "s").text, "caf\xc3\xa9");
}

TEST(JsonParse, ErrorsNameTheSourceAndTheLine) {
  EXPECT_EQ(parse_error("{\n  \"a\": 1,\n  oops\n}"),
            "doc.json: line 3: expected a quoted key");
  // A caller parsing one line of a larger file passes that line's number.
  EXPECT_EQ(parse_error("{\"a\": -}", 41),
            "doc.json: line 41: malformed number '-'");
  // An unterminated string is reported where it starts.
  EXPECT_NE(parse_error("[\n\"abc").find("line 2"), std::string::npos);
  EXPECT_THROW(pe::json_error("x.json", 7, "bad"), pe::Error);
}

TEST(JsonParse, ValuesRecordTheLineTheyStartOn) {
  const JsonValue doc =
      pe::json_parse("{\n\"a\": 1,\n\n\"b\": [\ntrue,\nnull]\n}", "d", 10);
  EXPECT_EQ(doc.line, 10u);
  ASSERT_NE(doc.find("a"), nullptr);
  EXPECT_EQ(doc.find("a")->line, 11u);
  const JsonValue* b = doc.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->line, 13u);
  ASSERT_EQ(b->array.size(), 2u);
  EXPECT_EQ(b->array[0].line, 14u);
  EXPECT_EQ(b->array[1].line, 15u);
  EXPECT_EQ(doc.find("c"), nullptr);
}

TEST(JsonParse, ObjectsKeepDocumentOrderAndFindTheFirstMember) {
  const JsonValue doc =
      pe::json_parse(R"({"z": 1, "a": "x", "z": 2, "n": null})", "d");
  ASSERT_EQ(doc.object.size(), 4u);
  EXPECT_EQ(doc.object[0].first, "z");
  EXPECT_EQ(doc.object[1].first, "a");
  EXPECT_EQ(doc.find("z")->number, 1.0);
  EXPECT_EQ(doc.find("n")->kind, Kind::kNull);
  EXPECT_STREQ(doc.find("a")->kind_name(), "string");
}

TEST(JsonParse, ReadsUnsignedIntegersExactlyFromTheToken) {
  const auto uint_of = [](const char* text) {
    return pe::json_parse(text, "n").as_uint();
  };
  EXPECT_EQ(uint_of("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  // 2^53 + 1 has no double: a conversion through one would read 2^53.
  EXPECT_EQ(uint_of("9007199254740993"), 9007199254740993ULL);
  EXPECT_EQ(uint_of("0"), 0u);
  EXPECT_FALSE(uint_of("18446744073709551616"));  // 2^64
  EXPECT_FALSE(uint_of("-5"));
  EXPECT_FALSE(uint_of("-0"));
  EXPECT_FALSE(uint_of("3.9"));
  EXPECT_FALSE(uint_of("1e3"));
  EXPECT_FALSE(uint_of("\"7\""));
  EXPECT_DOUBLE_EQ(pe::json_parse("-1.5e-3", "n").number, -1.5e-3);
}

TEST(JsonParse, NestingIsCappedSoDeepInputThrows) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW((void)pe::json_parse(nested(pe::kJsonMaxDepth), "d"));
  EXPECT_NE(parse_error(nested(pe::kJsonMaxDepth + 1)).find("nesting"),
            std::string::npos);
  EXPECT_THROW((void)pe::json_parse(std::string(100000, '['), "d"),
               pe::Error);
  EXPECT_THROW((void)pe::json_parse(std::string(100000, '{'), "d"),
               pe::Error);
}

TEST(JsonParse, RejectsTrailingContent) {
  EXPECT_NE(parse_error("{} x").find("trailing content"), std::string::npos);
  EXPECT_FALSE(parse_error("1 2").empty());
  EXPECT_FALSE(parse_error("[1]]").empty());
  EXPECT_FALSE(parse_error("{\"ns\":12abc}").empty());
  EXPECT_NO_THROW((void)pe::json_parse(" \r\n\t{}\n\n", "d"));
}

TEST(JsonParse, RejectsWhatJsonRejects) {
  for (const char* bad :
       {"", "01", "+1", ".5", "1.", "1e", "1e+", "-", "--1", "0x10", "[1,]",
        "{\"a\":1,}", "{'a':1}", "{\"a\" 1}", "{1:2}", "[1 2]",
        "\"tab\there\"", "\"line\nbreak\"", "NaN", "Infinity", "tru", "nul",
        "1e999"}) {
    EXPECT_FALSE(parse_error(bad).empty()) << "accepted: " << bad;
  }
}

TEST(JsonDouble, ShortestFormReadsBackAsTheSameDouble) {
  for (const double v :
       {0.0, -0.0, 0.1, 1.0 / 3.0, 0.123456789, 1e-300, 4523841234.567,
        12345678.9, std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min(), -2.5e9}) {
    const std::string text = pe::json_double(v);
    const JsonValue back = pe::json_parse(text, "n");
    ASSERT_EQ(back.kind, Kind::kNumber) << text;
    EXPECT_EQ(back.number, v) << text;
  }
  // The machine description's byte-stable forms: shortest %.*g, never
  // std::to_chars's 1e-04.
  EXPECT_EQ(pe::json_double(0.0001), "0.0001");
  EXPECT_EQ(pe::json_double(12.0), "12");
  EXPECT_EQ(pe::json_double(2.5e9), "2.5e+09");
  EXPECT_EQ(pe::json_double(0.123456789), "0.123456789");
}

TEST(JsonDouble, NonFiniteValuesAreWrittenAsNull) {
  EXPECT_EQ(pe::json_double(std::nan("")), "null");
  EXPECT_EQ(pe::json_double(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(pe::json_double(-std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(pe::json_parse(pe::json_double(std::nan("")), "n").kind,
            Kind::kNull);
}

}  // namespace
