// Tests for the reporting substrate: table rendering (text, markdown,
// CSV), the JSON summary writer with its token readers, and the bench
// argument parser.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/args.h"
#include "io/json.h"
#include "io/table.h"

namespace {

using divpp::io::Args;
using divpp::io::Table;

TEST(TableTest, BuildsAndRendersText) {
  Table table({"n", "error"});
  table.begin_row().add_cell(std::int64_t{1024}).add_cell(0.125, 3);
  table.begin_row().add_cell(std::int64_t{2048}).add_cell(0.0625, 3);
  const std::string text = table.to_text();
  EXPECT_NE(text.find("n"), std::string::npos);
  EXPECT_NE(text.find("1024"), std::string::npos);
  EXPECT_NE(text.find("0.0625"), std::string::npos);
  EXPECT_EQ(table.rows(), 2);
  EXPECT_EQ(table.cell(0, 0), "1024");
}

TEST(TableTest, MarkdownShape) {
  Table table({"a", "b"});
  table.begin_row().add_cell("x").add_cell("y");
  const std::string md = table.to_markdown();
  EXPECT_EQ(md.rfind("| a | b |", 0), 0u);
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
  EXPECT_NE(md.find("| x | y |"), std::string::npos);
}

TEST(TableTest, CsvEscapesSpecials) {
  Table table({"name", "value"});
  table.begin_row().add_cell("with,comma").add_cell("quote\"inside");
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(TableTest, UsageErrors) {
  EXPECT_THROW(Table({}), std::invalid_argument);
  Table table({"one"});
  EXPECT_THROW(table.add_cell("no row yet"), std::logic_error);
  table.begin_row().add_cell("ok");
  EXPECT_THROW(table.add_cell("overflow"), std::logic_error);
  EXPECT_THROW((void)table.cell(0, 5), std::out_of_range);
  EXPECT_THROW((void)table.cell(3, 0), std::out_of_range);
}

TEST(TableTest, IncompleteRowDetectedOnNextBegin) {
  Table table({"a", "b"});
  table.begin_row().add_cell("only one");
  EXPECT_THROW(table.begin_row(), std::logic_error);
}

TEST(FormatDouble, RespectsPrecision) {
  EXPECT_EQ(divpp::io::format_double(3.14159, 3), "3.14");
  EXPECT_EQ(divpp::io::format_double(1000000.0, 4), "1e+06");
}

TEST(Banner, ContainsTitle) {
  const std::string b = divpp::io::banner("Experiment E3");
  EXPECT_NE(b.find("Experiment E3"), std::string::npos);
  EXPECT_NE(b.find("=="), std::string::npos);
}

TEST(ArgsTest, ParsesBothFlagSyntaxes) {
  const char* argv[] = {"prog", "--n=100", "--seed", "7", "--verbose"};
  const Args args(5, argv);
  EXPECT_EQ(args.get_int("n", 0), 100);
  EXPECT_EQ(args.get_int("seed", 0), 7);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_TRUE(args.has("n"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.program(), "prog");
}

TEST(ArgsTest, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  const Args args(1, argv);
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_EQ(args.get_double("x", 2.5), 2.5);
  EXPECT_EQ(args.get_string("s", "dflt"), "dflt");
  EXPECT_FALSE(args.get_bool("flag", false));
}

TEST(ArgsTest, ListsParse) {
  const char* argv[] = {"prog", "--ns=1,2,3", "--ws=1.5,2.5"};
  const Args args(3, argv);
  const auto ns = args.get_int_list("ns", {});
  ASSERT_EQ(ns.size(), 3u);
  EXPECT_EQ(ns[2], 3);
  const auto ws = args.get_double_list("ws", {});
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[1], 2.5);
  // Fallback list used when absent.
  const auto fallback = args.get_int_list("absent", {9});
  ASSERT_EQ(fallback.size(), 1u);
  EXPECT_EQ(fallback[0], 9);
}

TEST(ArgsTest, RejectsMalformedFlags) {
  const char* argv[] = {"prog", "nodashes"};
  EXPECT_THROW(Args(2, argv), std::invalid_argument);
}

// Parse failures must name the flag and the offending value — a bare
// std::stoll "stoll" message is useless in an experiment sweep.
TEST(ArgsTest, IntParseErrorNamesFlagAndValue) {
  const char* argv[] = {"prog", "--replicas"};  // bare flag -> "true"
  const Args args(2, argv);
  try {
    (void)args.get_int("replicas", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--replicas"), std::string::npos) << what;
    EXPECT_NE(what.find("'true'"), std::string::npos) << what;
  }
}

TEST(ArgsTest, DoubleParseErrorNamesFlagAndValue) {
  const char* argv[] = {"prog", "--delta=abc"};
  const Args args(2, argv);
  try {
    (void)args.get_double("delta", 0.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--delta"), std::string::npos) << what;
    EXPECT_NE(what.find("'abc'"), std::string::npos) << what;
  }
}

TEST(ArgsTest, TrailingGarbageRejected) {
  const char* argv[] = {"prog", "--n=12abc", "--x=3.5zzz"};
  const Args args(3, argv);
  EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("x", 0.0), std::invalid_argument);
}

TEST(ArgsTest, ListParseErrorNamesFlag) {
  const char* argv[] = {"prog", "--ns=1,two,3", "--ws=1.5,x"};
  const Args args(3, argv);
  try {
    (void)args.get_int_list("ns", {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--ns"), std::string::npos) << what;
    EXPECT_NE(what.find("'two'"), std::string::npos) << what;
  }
  EXPECT_THROW((void)args.get_double_list("ws", {}), std::invalid_argument);
}

TEST(JsonTest, RendersInInsertionOrder) {
  divpp::io::Json json;
  json.set("bench", "e14").set("threads", 4).set("ok", true);
  EXPECT_EQ(json.to_string(), "{\"bench\":\"e14\",\"threads\":4,\"ok\":true}");
}

TEST(JsonTest, NestedObjectsAndArrays) {
  divpp::io::Json child;
  child.set("wall_seconds", 0.5);
  const std::vector<std::int64_t> counts = {1, 2, 3};
  divpp::io::Json json;
  json.set("timing", child).set("counts", std::span<const std::int64_t>(counts));
  EXPECT_EQ(json.to_string(),
            "{\"timing\":{\"wall_seconds\":0.5},\"counts\":[1,2,3]}");
}

TEST(JsonTest, EscapesStringsAndNonFiniteNumbers) {
  divpp::io::Json json;
  json.set("name", "a\"b\\c\n").set("nan", std::nan(""));
  EXPECT_EQ(json.to_string(),
            "{\"name\":\"a\\\"b\\\\c\\n\",\"nan\":null}");
}

TEST(JsonTest, QuoteEscapesEveryControlCharacter) {
  using divpp::io::json_quote;
  EXPECT_EQ(json_quote("q\"b\\"), "\"q\\\"b\\\\\"");
  EXPECT_EQ(json_quote("\n\r\t\b\f"), "\"\\n\\r\\t\\b\\f\"");
  // Remaining control bytes render as \u00XX; NUL included.
  EXPECT_EQ(json_quote(std::string(1, '\0')), "\"\\u0000\"");
  EXPECT_EQ(json_quote("\x01\x1f"), "\"\\u0001\\u001f\"");
  // Bytes >= 0x20 pass through (the writer is encoding-agnostic).
  EXPECT_EQ(json_quote("caf\xc3\xa9"), "\"caf\xc3\xa9\"");
}

TEST(JsonTest, UnquoteRoundTripsEveryByte) {
  using divpp::io::json_quote;
  using divpp::io::json_unquote;
  // Every single byte 0..255 survives a quote/unquote round trip.
  for (int b = 0; b < 256; ++b) {
    const std::string raw(1, static_cast<char>(b));
    EXPECT_EQ(json_unquote(json_quote(raw)), raw) << "byte " << b;
  }
  // And mixed strings with quotes, backslashes, and embedded NULs.
  const std::string mixed = std::string("a\"b\\c\n\r\t\b\f") +
                            std::string(1, '\0') + "tail \xff";
  EXPECT_EQ(json_unquote(json_quote(mixed)), mixed);
  EXPECT_EQ(json_unquote("\"\""), "");
  EXPECT_EQ(json_unquote("\"a\\/b\""), "a/b");  // accepted, never emitted
}

TEST(JsonTest, UnquoteRejectsMalformedInput) {
  using divpp::io::json_unquote;
  EXPECT_THROW((void)json_unquote(""), std::invalid_argument);
  EXPECT_THROW((void)json_unquote("\""), std::invalid_argument);
  EXPECT_THROW((void)json_unquote("no quotes"), std::invalid_argument);
  EXPECT_THROW((void)json_unquote("\"open"), std::invalid_argument);
  EXPECT_THROW((void)json_unquote("\"dangling\\\""), std::invalid_argument);
  EXPECT_THROW((void)json_unquote("\"bad\\q\""), std::invalid_argument);
  EXPECT_THROW((void)json_unquote("\"\\u12\""), std::invalid_argument);
  EXPECT_THROW((void)json_unquote("\"\\uZZZZ\""), std::invalid_argument);
  EXPECT_THROW((void)json_unquote("\"\\u0100\""), std::invalid_argument)
      << "multi-byte code points are out of contract";
  EXPECT_THROW((void)json_unquote("\"raw\nnewline\""), std::invalid_argument);
  EXPECT_THROW((void)json_unquote("\"inner\"quote\""), std::invalid_argument);
}

TEST(JsonTest, RecordTokensScanInOrder) {
  namespace io = divpp::io;
  const double third = 1.0 / 3.0;
  const std::string line = "run  7 " + io::hex_double(third) + " " +
                           io::json_quote("a \"name\"") + "  ";
  std::size_t pos = 0;
  EXPECT_EQ(io::scan_token(line, pos, "ctx"), "run");
  EXPECT_EQ(io::scan_token(line, pos, "ctx"), "7");
  EXPECT_EQ(io::parse_hex_double(io::scan_token(line, pos, "ctx"), "ctx"),
            third);  // bit-exact
  EXPECT_EQ(io::scan_quoted(line, pos, "ctx"), "a \"name\"");
  io::skip_spaces(line, pos);
  EXPECT_EQ(pos, line.size());
}

TEST(JsonTest, RecordTokenErrorsNameTheirRecord) {
  namespace io = divpp::io;
  const auto message = [](const auto& read) -> std::string {
    try {
      read();
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "no throw";
  };
  std::size_t pos = 0;
  EXPECT_EQ(message([&] { (void)io::scan_token("   ", pos, "ctx"); }),
            "ctx: truncated record");
  pos = 0;
  EXPECT_EQ(message([&] { (void)io::scan_quoted("bare", pos, "ctx"); }),
            "ctx: expected a quoted string");
  pos = 0;
  EXPECT_EQ(message([&] { (void)io::scan_quoted(" \"open", pos, "ctx"); }),
            "ctx: unterminated quoted string");
  EXPECT_EQ(message([] { (void)io::parse_hex_double("0x1p+0z", "ctx"); }),
            "ctx: bad double '0x1p+0z'");
  EXPECT_EQ(message([] { (void)io::parse_hex_double("", "ctx"); }),
            "ctx: bad double ''");
}

}  // namespace
