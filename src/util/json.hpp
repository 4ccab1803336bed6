// Small recursive-descent JSON parser for configuration documents.
//
// The one JSON reader in the repository: scenario files and the tuning
// cache both parse through it.  parse() -> Value, with typed accessors
// that throw descriptive std::runtime_errors naming the path that went
// wrong.  It is a strict reader for the repo's own config files, not a
// general serialization framework: numbers are doubles, object key order
// is preserved for deterministic iteration, duplicate keys take the last
// value (like every lenient reader), and there is deliberately no writer.
// Three hand-rolled printers emit JSON: run-database rows
// (obs/rundb.cpp), the Chrome trace (obs/trace.cpp, whose span names are
// string literals) and the tuning cache (tune/tuning_cache.cpp).  The
// two that print runtime strings quote them through the one escape()
// below.
//
// Hostile input fails with an error, never a crash: parse_file reads at
// most kMaxDocumentBytes, arrays and objects nest at most kMaxDepth
// levels (the shipped scenarios use 4), and as_int() rejects
// non-integral, non-finite and out-of-int-range numbers.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

namespace tb::util::json {

class Value;

using Array = std::vector<Value>;
/// Object entries in document order (duplicate keys: last wins on
/// lookup, both preserved in iteration order).
using Object = std::vector<std::pair<std::string, Value>>;

/// One JSON value.  Accessors come in two flavours: is_*/as_* pairs that
/// throw on a type mismatch, and get(key) helpers for objects that throw
/// naming the missing key.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  explicit Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit Value(double d) : kind_(Kind::kNumber), num_(d) {}
  explicit Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  explicit Value(Array a) : kind_(Kind::kArray), arr_(std::move(a)) {}
  explicit Value(Object o) : kind_(Kind::kObject), obj_(std::move(o)) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool() const {
    require(Kind::kBool, "bool");
    return bool_;
  }
  [[nodiscard]] double as_number() const {
    require(Kind::kNumber, "number");
    return num_;
  }
  /// Number narrowed to int; throws when the value has a fractional part
  /// (config integers are exact — 2.5 threads is a typo, not a rounding
  /// decision this layer should make) or does not fit an int.
  [[nodiscard]] int as_int() const {
    const double d = as_number();
    if (!std::isfinite(d) || d != std::floor(d) ||
        d < std::numeric_limits<int>::min() ||
        d > std::numeric_limits<int>::max())
      throw std::runtime_error("json: expected an int, got " +
                               std::to_string(d));
    return static_cast<int>(d);
  }
  [[nodiscard]] const std::string& as_string() const {
    require(Kind::kString, "string");
    return str_;
  }
  [[nodiscard]] const Array& as_array() const {
    require(Kind::kArray, "array");
    return arr_;
  }
  [[nodiscard]] const Object& as_object() const {
    require(Kind::kObject, "object");
    return obj_;
  }

  /// Object member lookup; nullptr when absent (or when this is not an
  /// object — optional sections read naturally through it).
  [[nodiscard]] const Value* find(const std::string& key) const {
    if (kind_ != Kind::kObject) return nullptr;
    const Value* hit = nullptr;
    for (const auto& [k, v] : obj_)
      if (k == key) hit = &v;  // duplicate keys: last wins
    return hit;
  }

  /// Object member lookup that throws naming the missing key.
  [[nodiscard]] const Value& get(const std::string& key) const {
    require(Kind::kObject, "object");
    if (const Value* v = find(key)) return *v;
    throw std::runtime_error("json: missing required key '" + key + "'");
  }

 private:
  void require(Kind want, const char* name) const {
    if (kind_ != want)
      throw std::runtime_error(std::string("json: expected a ") + name +
                               ", got " + kind_name(kind_));
  }
  [[nodiscard]] static const char* kind_name(Kind k) {
    switch (k) {
      case Kind::kNull: return "null";
      case Kind::kBool: return "bool";
      case Kind::kNumber: return "number";
      case Kind::kString: return "string";
      case Kind::kArray: return "array";
      case Kind::kObject: return "object";
    }
    return "?";
  }

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Deepest array/object nesting parse() accepts; deeper input throws
/// instead of exhausting the stack.
inline constexpr int kMaxDepth = 64;

namespace detail {

class Parser {
 public:
  Parser(const std::string& text, std::string origin)
      : s_(text), origin_(std::move(origin)) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content after the document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    // Re-derive line/column from the byte offset only on the error path.
    int line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < s_.size(); ++i) {
      if (s_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw std::runtime_error(origin_ + ":" + std::to_string(line) + ":" +
                             std::to_string(col) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of document");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      fail(std::string("expected '") + c + "', got '" + s_[pos_] + "'");
    ++pos_;
  }

  bool consume_if(char c) {
    if (pos_ < s_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Value parse_value() {
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth)
          fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
        ++depth_;
        Value v = s_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Value(parse_string());
      case 't':
      case 'f': return parse_bool();
      case 'n':
        parse_literal("null");
        return Value();
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    if (consume_if('}')) return Value(std::move(obj));
    while (true) {
      if (peek() != '"') fail("object keys must be strings");
      std::string key = parse_string();
      expect(':');
      obj.emplace_back(std::move(key), parse_value());
      if (consume_if('}')) return Value(std::move(obj));
      expect(',');
    }
  }

  Value parse_array() {
    expect('[');
    Array arr;
    if (consume_if(']')) return Value(std::move(arr));
    while (true) {
      arr.push_back(parse_value());
      if (consume_if(']')) return Value(std::move(arr));
      expect(',');
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // Config files are ASCII in practice; decode the BMP escape to
          // UTF-8 so the parser is still correct when they are not.
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9')
              cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("invalid \\u escape digit");
          }
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: fail(std::string("unknown escape '\\") + e + "'");
      }
    }
  }

  Value parse_bool() {
    if (s_[pos_] == 't') {
      parse_literal("true");
      return Value(true);
    }
    parse_literal("false");
    return Value(false);
  }

  void parse_literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) {
      if (pos_ >= s_.size() || s_[pos_] != *p)
        fail(std::string("expected '") + lit + "'");
      ++pos_;
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-'))
      ++pos_;
    const std::string tok = s_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0')
      fail("invalid number '" + tok + "'");
    return Value(d);
  }

  const std::string& s_;
  std::string origin_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace detail

/// Parses a complete JSON document.  `origin` names the source in error
/// messages ("<string>" by default, the file path for parse_file).
[[nodiscard]] inline Value parse(const std::string& text,
                                 const std::string& origin = "<string>") {
  return detail::Parser(text, origin).parse_document();
}

/// Body of a JSON string literal for `s` (no surrounding quotes): escapes
/// '"', '\\' and every control character below 0x20 as \u00XX, so the
/// result never contains a raw newline and parse() reads it back equal.
[[nodiscard]] inline std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      static constexpr char kHex[] = "0123456789abcdef";
      out += "\\u00";
      out.push_back(kHex[(c >> 4) & 0xF]);
      out.push_back(kHex[c & 0xF]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Largest file parse_file reads.  The shipped scenarios are a few KiB
/// and a tuning cache holds a few hundred bytes per tuned shape, so a
/// larger file is not a config document; it is refused while reading,
/// before it can fill memory (a FIFO or /dev/zero never ends).
inline constexpr std::size_t kMaxDocumentBytes = std::size_t{16} << 20;

/// Reads and parses a JSON file; throws std::runtime_error naming the
/// path on read or parse failure, and naming the path and the size for a
/// file over kMaxDocumentBytes.
[[nodiscard]] inline Value parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("json: cannot read '" + path + "'");
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk), in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
    if (text.size() > kMaxDocumentBytes) {
      std::error_code ec;  // no size for a stream that is not a file
      const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
      throw std::runtime_error(
          "json: '" + path + "' is " +
          (ec ? "more than " + std::to_string(kMaxDocumentBytes)
              : std::to_string(bytes)) +
          " bytes; documents are limited to " +
          std::to_string(kMaxDocumentBytes) + " bytes");
    }
  }
  return parse(text, path);
}

}  // namespace tb::util::json
