#include "trace/json_check.hpp"

#include <cctype>
#include <cstdlib>

namespace arbor::trace {

namespace {

// One grammar walk for both entry points. With a null output the walker
// only validates: check_json runs it that way, so trace-validate walks
// multi-megabyte traces without allocating a tree.
class Walker {
 public:
  explicit Walker(std::string_view text) : text_(text) {}

  /// Walks exactly one value plus whitespace; builds it into `out` unless
  /// `out` is null.
  JsonCheckResult run(JsonValue* out) {
    skip_ws();
    if (!value(out)) return result_;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after value");
      return result_;
    }
    return {true, 0, ""};
  }

 private:
  bool fail(const std::string& error) {
    if (result_.error.empty()) result_ = {false, pos_, error};
    return false;
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r'))
      ++pos_;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word)
      return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  /// The four hex digits of a unicode escape: starts on the 'u', ends on
  /// the last digit.
  bool hex4(unsigned& code) {
    code = 0;
    for (int i = 0; i < 4; ++i) {
      ++pos_;
      if (eof() || !std::isxdigit(static_cast<unsigned char>(peek())))
        return fail("bad unicode escape");
      const char h = peek();
      code = code * 16 +
             static_cast<unsigned>(h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
    }
    return true;
  }

  /// Fails at `offset` instead of the current position.
  bool fail_at(std::size_t offset, const std::string& error) {
    pos_ = offset;
    return fail(error);
  }

  /// Decoded into `out` unless it is null.
  bool string(std::string* out) {
    if (eof() || peek() != '"') return fail("expected string");
    ++pos_;
    while (!eof() && peek() != '"') {
      char c = peek();
      if (c == '\\') {
        ++pos_;
        if (eof()) return fail("unterminated escape");
        switch (peek()) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            // A code point above U+FFFF is escaped as a UTF-16 surrogate
            // pair and decodes to one 4-byte UTF-8 sequence; a surrogate
            // without its partner is not a character, so it is rejected
            // at the backslash of its escape.
            const std::size_t escape = pos_ - 1;
            unsigned code = 0;
            if (!hex4(code)) return false;
            if (code >= 0xDC00 && code <= 0xDFFF)
              return fail_at(escape, "lone low surrogate in unicode escape");
            if (code >= 0xD800 && code <= 0xDBFF) {
              if (text_.substr(pos_ + 1, 2) != "\\u")
                return fail_at(escape,
                               "lone high surrogate in unicode escape");
              pos_ += 2;
              unsigned low = 0;
              if (!hex4(low)) return false;
              if (low < 0xDC00 || low > 0xDFFF)
                return fail_at(escape,
                               "lone high surrogate in unicode escape");
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
            if (out) append_utf8(*out, code);
            ++pos_;
            continue;
          }
          default: return fail("bad escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (out) out->push_back(c);
      ++pos_;
    }
    if (eof()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool number(JsonValue* out) {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
      return fail("bad number");
    if (peek() == '0') {
      // RFC 8259: an integer part is 0 or starts with a nonzero digit.
      ++pos_;
      if (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
        return fail("leading zero in number");
    } else {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        return fail("bad number fraction");
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        return fail("bad number exponent");
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (out) {
      out->kind = JsonValue::Kind::kNumber;
      out->number =
          std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                      nullptr);
    }
    return true;
  }

  bool value(JsonValue* out) {
    if (++depth_ > kMaxDepth) return fail("nesting too deep");
    struct Depth {
      std::size_t& d;
      ~Depth() { --d; }
    } depth_guard{depth_};
    skip_ws();
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return object(out);
      case '[': return array(out);
      case '"':
        if (out) out->kind = JsonValue::Kind::kString;
        return string(out ? &out->string : nullptr);
      case 't':
        if (out) {
          out->kind = JsonValue::Kind::kBool;
          out->boolean = true;
        }
        return literal("true");
      case 'f':
        if (out) out->kind = JsonValue::Kind::kBool;
        return literal("false");
      case 'n':
        if (out) out->kind = JsonValue::Kind::kNull;
        return literal("null");
      default: return number(out);
    }
  }

  bool object(JsonValue* out) {
    if (out) out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!string(out ? &key : nullptr)) return false;
      skip_ws();
      if (eof() || peek() != ':') return fail("expected ':' in object");
      ++pos_;
      JsonValue member;
      if (!value(out ? &member : nullptr)) return false;
      if (out) out->object.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (eof()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool array(JsonValue* out) {
    if (out) out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue element;
      if (!value(out ? &element : nullptr)) return false;
      if (out) out->array.push_back(std::move(element));
      skip_ws();
      if (eof()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  static constexpr std::size_t kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  JsonCheckResult result_{false, 0, ""};
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [name, member] : object)
    if (name == key) return &member;
  return nullptr;
}

JsonCheckResult check_json(std::string_view text) {
  return Walker(text).run(nullptr);
}

JsonParseResult parse_json(std::string_view text) {
  JsonParseResult out;
  JsonCheckResult walked = Walker(text).run(&out.value);
  out.ok = walked.ok;
  out.offset = walked.offset;
  out.error = std::move(walked.error);
  return out;
}

}  // namespace arbor::trace
