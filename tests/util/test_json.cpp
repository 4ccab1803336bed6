// util/json.hpp: the minimal JSON parser scenario files and the tuning
// cache are read with.  Covers the value model, typed-accessor errors,
// escapes, numbers, document-order objects, parse-error positions, the
// nesting-depth limit and parse_file's document-size limit.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/json.hpp"

namespace tb::util::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(parse("-1e3").as_number(), -1000.0);
  EXPECT_EQ(parse("42").as_int(), 42);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, IntRejectsFractions) {
  EXPECT_THROW((void)parse("1.5").as_int(), std::runtime_error);
  EXPECT_EQ(parse("2.0").as_int(), 2);  // integral value, fine
  // Integral but outside int (the cast would be undefined), or infinite.
  EXPECT_THROW((void)parse("1e10").as_int(), std::runtime_error);
  EXPECT_THROW((void)parse("3e9").as_int(), std::runtime_error);
  EXPECT_THROW((void)parse("-3e9").as_int(), std::runtime_error);
  EXPECT_THROW((void)parse("1e999").as_int(), std::runtime_error);
  EXPECT_EQ(parse("2147483647").as_int(), std::numeric_limits<int>::max());
  EXPECT_EQ(parse("-2147483648").as_int(), std::numeric_limits<int>::min());
}

TEST(Json, ArraysAndNesting) {
  const Value v = parse("[1, [2, 3], {\"a\": 4}]");
  const Array& a = v.as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].as_int(), 1);
  EXPECT_EQ(a[1].as_array()[1].as_int(), 3);
  EXPECT_EQ(a[2].get("a").as_int(), 4);
}

TEST(Json, ObjectsKeepDocumentOrder) {
  const Value v = parse(R"({"z": 1, "a": 2, "m": 3})");
  const Object& o = v.as_object();
  ASSERT_EQ(o.size(), 3u);
  EXPECT_EQ(o[0].first, "z");
  EXPECT_EQ(o[1].first, "a");
  EXPECT_EQ(o[2].first, "m");
}

TEST(Json, FindAndGet) {
  const Value v = parse(R"({"n": 32, "op": "jacobi"})");
  EXPECT_EQ(v.find("missing"), nullptr);
  ASSERT_NE(v.find("n"), nullptr);
  EXPECT_EQ(v.get("op").as_string(), "jacobi");
  try {
    (void)v.get("steps");
    FAIL() << "get() on a missing key must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("steps"), std::string::npos)
        << "error should name the missing key";
  }
}

TEST(Json, DuplicateKeysLastWins) {
  const Value v = parse(R"({"n": 1, "n": 2})");
  EXPECT_EQ(v.get("n").as_int(), 2);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d\n")").as_string(), "a\"b\\c/d\n");
  EXPECT_EQ(parse(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(Json, EscapeRoundTripsEveryControlByte) {
  for (int c = 0; c < 0x20; ++c) {
    const std::string s = std::string("x") + static_cast<char>(c) + "\"\\y";
    const std::string body = escape(s);
    for (const char e : body)
      EXPECT_GE(static_cast<unsigned char>(e), 0x20) << "byte " << c;
    EXPECT_EQ(parse("\"" + body + "\"").as_string(), s) << "byte " << c;
  }
}

TEST(Json, TypeMismatchesThrow) {
  EXPECT_THROW((void)parse("1").as_string(), std::runtime_error);
  EXPECT_THROW((void)parse("\"x\"").as_number(), std::runtime_error);
  EXPECT_THROW((void)parse("[1]").as_object(), std::runtime_error);
  EXPECT_THROW((void)parse("{}").as_array(), std::runtime_error);
}

TEST(Json, ParseErrorsCarryPosition) {
  try {
    (void)parse("{\n  \"a\": ,\n}", "test.json");
    FAIL() << "malformed JSON must throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("test.json"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2"), std::string::npos)
        << "error should carry the line number: " << msg;
  }
}

TEST(Json, RejectsTrailingGarbageAndPartialLiterals) {
  EXPECT_THROW((void)parse("1 2"), std::runtime_error);
  EXPECT_THROW((void)parse("tru"), std::runtime_error);
  EXPECT_THROW((void)parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)parse(""), std::runtime_error);
  EXPECT_THROW((void)parse("\"unterminated"), std::runtime_error);
}

TEST(Json, NestingDepthIsCapped) {
  // One recursion per bracket: without the limit this exhausts the stack.
  EXPECT_THROW((void)parse(std::string(100000, '[')), std::runtime_error);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\": ";
  EXPECT_THROW((void)parse(objects), std::runtime_error);

  const std::string deepest =
      std::string(kMaxDepth, '[') + std::string(kMaxDepth, ']');
  EXPECT_TRUE(parse(deepest).is_array());
  try {
    (void)parse("[" + deepest + "]", "deep.json");
    FAIL() << "nesting past kMaxDepth must throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deep.json:1:" + std::to_string(kMaxDepth + 1)),
              std::string::npos)
        << msg;
  }
}

TEST(Json, ParseFileMissingThrows) {
  EXPECT_THROW((void)parse_file("/nonexistent/scenario.json"),
               std::runtime_error);
}

// A file of whitespace around "{}" is valid JSON at any length, so only
// the size cap can reject the larger one.
TEST(Json, ParseFileRejectsDocumentsOverTheSizeCap) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tb_json_size_cap.json")
          .string();
  const auto write = [&](std::size_t bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "{}" << std::string(bytes - 2, ' ');
  };
  write(kMaxDocumentBytes);
  EXPECT_TRUE(parse_file(path).is_object());
  write(kMaxDocumentBytes + 1);
  try {
    (void)parse_file(path);
    ADD_FAILURE() << "a document over the size cap must throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(kMaxDocumentBytes + 1)),
              std::string::npos)
        << msg;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tb::util::json
