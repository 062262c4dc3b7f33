#include "src/eden/json.h"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace eden {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ValueToJson(const Value& value) {
  switch (value.kind()) {
    case Value::Kind::kNil:
      return "null";
    case Value::Kind::kBool:
      return *value.AsBool() ? "true" : "false";
    case Value::Kind::kInt: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(*value.AsInt()));
      return buf;
    }
    case Value::Kind::kReal: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", *value.AsReal());
      return buf;
    }
    case Value::Kind::kStr:
      return "\"" + JsonEscape(*value.AsStr()) + "\"";
    case Value::Kind::kBytes: {
      std::string hex;
      hex.reserve(value.AsBytes()->size() * 2);
      for (uint8_t b : *value.AsBytes()) {
        char buf[4];
        std::snprintf(buf, sizeof(buf), "%02x", b);
        hex += buf;
      }
      return "\"" + hex + "\"";
    }
    case Value::Kind::kUid:
      return "\"" + JsonEscape(value.AsUid()->ToString()) + "\"";
    case Value::Kind::kList: {
      std::string out = "[";
      bool first = true;
      for (const Value& v : *value.AsList()) {
        if (!first) {
          out += ",";
        }
        first = false;
        out += ValueToJson(v);
      }
      return out + "]";
    }
    case Value::Kind::kMap: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, v] : *value.AsMap()) {
        if (!first) {
          out += ",";
        }
        first = false;
        out += "\"" + JsonEscape(k) + "\":" + ValueToJson(v);
      }
      return out + "}";
    }
  }
  return "null";
}

namespace {

// Recursive-descent JSON parser (RFC 8259 syntax) building Values. Tracks
// position for error reporting.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<Value> Parse(std::string* error) {
    SkipWs();
    Value out;
    if (!Element(out)) {
      Report(error);
      return std::nullopt;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      message_ = "trailing characters after document";
      Report(error);
      return std::nullopt;
    }
    return out;
  }

 private:
  void Report(std::string* error) const {
    if (error != nullptr) {
      *error = (message_.empty() ? std::string("malformed JSON") : message_) +
               " at offset " + std::to_string(pos_);
    }
  }

  bool Eof() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWs() {
    while (!Eof() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                      Peek() == '\r')) {
      pos_++;
    }
  }

  bool Fail(const char* why) {
    if (message_.empty()) {
      message_ = why;
    }
    return false;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Fail("bad literal");
    }
    pos_ += word.size();
    return true;
  }

  static void AppendUtf8(std::string& out, uint32_t code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  bool String(std::string& out) {
    if (Eof() || Peek() != '"') {
      return Fail("expected string");
    }
    pos_++;
    while (!Eof() && Peek() != '"') {
      char c = Peek();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        pos_++;
        continue;
      }
      pos_++;
      if (Eof()) {
        return Fail("truncated escape");
      }
      char e = Peek();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          uint32_t code = 0;
          for (int i = 0; i < 4; ++i) {
            pos_++;
            if (Eof() || !std::isxdigit(static_cast<unsigned char>(Peek()))) {
              return Fail("bad \\u escape");
            }
            char h = Peek();
            code = code * 16 +
                   (h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
          }
          // Surrogates are passed through as-is (BMP only); enough for the
          // escapes our own writers and google-benchmark emit.
          AppendUtf8(out, code);
          break;
        }
        default:
          return Fail("bad escape character");
      }
      pos_++;
    }
    if (Eof()) {
      return Fail("unterminated string");
    }
    pos_++;  // closing quote
    return true;
  }

  bool Number(Value& out) {
    size_t start = pos_;
    bool integral = true;
    if (!Eof() && Peek() == '-') {
      pos_++;
    }
    if (Eof() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
      return Fail("expected digit");
    }
    if (Peek() == '0') {
      pos_++;
    } else {
      while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        pos_++;
      }
    }
    if (!Eof() && Peek() == '.') {
      integral = false;
      pos_++;
      if (Eof() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("expected fraction digit");
      }
      while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        pos_++;
      }
    }
    if (!Eof() && (Peek() == 'e' || Peek() == 'E')) {
      integral = false;
      pos_++;
      if (!Eof() && (Peek() == '+' || Peek() == '-')) {
        pos_++;
      }
      if (Eof() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("expected exponent digit");
      }
      while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        pos_++;
      }
    }
    std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      out = Value(static_cast<int64_t>(std::strtoll(token.c_str(), nullptr, 10)));
    } else {
      out = Value(std::strtod(token.c_str(), nullptr));
    }
    return true;
  }

  bool Element(Value& out) {
    if (Eof()) {
      return Fail("unexpected end of input");
    }
    switch (Peek()) {
      case '{':
        return Object(out);
      case '[':
        return Array(out);
      case '"': {
        std::string s;
        if (!String(s)) {
          return false;
        }
        out = Value(std::move(s));
        return true;
      }
      case 't':
        out = Value(true);
        return Literal("true");
      case 'f':
        out = Value(false);
        return Literal("false");
      case 'n':
        out = Value();
        return Literal("null");
      default:
        return Number(out);
    }
  }

  bool Object(Value& out) {
    pos_++;  // '{'
    ValueMap map;
    SkipWs();
    if (!Eof() && Peek() == '}') {
      pos_++;
      out = Value(std::move(map));
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (!String(key)) {
        return false;
      }
      SkipWs();
      if (Eof() || Peek() != ':') {
        return Fail("expected ':'");
      }
      pos_++;
      SkipWs();
      Value value;
      if (!Element(value)) {
        return false;
      }
      map.insert_or_assign(std::move(key), std::move(value));
      SkipWs();
      if (!Eof() && Peek() == ',') {
        pos_++;
        continue;
      }
      if (!Eof() && Peek() == '}') {
        pos_++;
        out = Value(std::move(map));
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool Array(Value& out) {
    pos_++;  // '['
    ValueList list;
    SkipWs();
    if (!Eof() && Peek() == ']') {
      pos_++;
      out = Value(std::move(list));
      return true;
    }
    for (;;) {
      SkipWs();
      Value value;
      if (!Element(value)) {
        return false;
      }
      list.push_back(std::move(value));
      SkipWs();
      if (!Eof() && Peek() == ',') {
        pos_++;
        continue;
      }
      if (!Eof() && Peek() == ']') {
        pos_++;
        out = Value(std::move(list));
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string message_;
};

}  // namespace

bool JsonValidate(std::string_view text, std::string* error) {
  return JsonParse(text, error).has_value();
}

std::optional<Value> JsonParse(std::string_view text, std::string* error) {
  return JsonParser(text).Parse(error);
}

}  // namespace eden
