#include "obs/json.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/str_util.h"

namespace lipstick::obs {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

// Word-at-a-time byte tests over 8 bytes loaded as one uint64_t. Each is
// exact as a yes/no answer for the whole word; the byte that matched is
// then found one byte at a time.
constexpr uint64_t kOnes = 0x0101010101010101ull;
constexpr uint64_t kHighs = 0x8080808080808080ull;

/// True when some byte of `w` is below `n` (n <= 0x80).
constexpr bool HasByteBelow(uint64_t w, uint8_t n) {
  return ((w - kOnes * n) & ~w & kHighs) != 0;
}

/// True when some byte of `w` equals `c`.
constexpr bool HasByte(uint64_t w, char c) {
  return HasByteBelow(w ^ (kOnes * static_cast<uint8_t>(c)), 1);
}

/// Offset of the first byte at or after `from` that `is_special` accepts,
/// or s.size(). While `word_has_special` rules a whole 8-byte word out,
/// the scan skips it in one step.
template <typename WordTest, typename ByteTest>
size_t FindSpecial(std::string_view s, size_t from, WordTest word_has_special,
                   ByteTest is_special) {
  size_t i = from;
  for (; i + sizeof(uint64_t) <= s.size(); i += sizeof(uint64_t)) {
    uint64_t w;
    std::memcpy(&w, s.data() + i, sizeof(w));
    if (word_has_special(w)) break;
  }
  for (; i < s.size(); ++i) {
    if (is_special(static_cast<unsigned char>(s[i]))) return i;
  }
  return s.size();
}

/// The next byte the escaper must rewrite: '"', '\\', or below 0x20.
size_t FindEscapable(std::string_view s, size_t from) {
  return FindSpecial(
      s, from,
      [](uint64_t w) {
        return HasByteBelow(w, 0x20) || HasByte(w, '"') || HasByte(w, '\\');
      },
      [](unsigned char c) { return c < 0x20 || c == '"' || c == '\\'; });
}

/// The next byte that ends a run inside a string literal: '"' or '\\'.
size_t FindQuoteOrBackslash(std::string_view s, size_t from) {
  return FindSpecial(
      s, from, [](uint64_t w) { return HasByte(w, '"') || HasByte(w, '\\'); },
      [](unsigned char c) { return c == '"' || c == '\\'; });
}

}  // namespace

void JsonEscape(std::string_view s, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t run = 0;
  while (true) {
    size_t next = FindEscapable(s, run);
    out->append(s.data() + run, next - run);
    if (next == s.size()) return;
    const unsigned char c = static_cast<unsigned char>(s[next]);
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out->append(u, sizeof(u));
      }
    }
    run = next + 1;
  }
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  JsonEscape(s, &out);
  return out;
}

std::string JsonNumber(double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    return buf;
  }
  if (!std::isfinite(d)) return "0";  // JSON has no inf/nan
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  // Trim to the shortest representation that still round-trips.
  for (int prec = 6; prec < 17; ++prec) {
    char shorter[40];
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, d);
    if (std::strtod(shorter, nullptr) == d) return shorter;
  }
  return buf;
}

void JsonValue::SerializeTo(std::string* out) const {
  switch (kind_) {
    case JsonValue::Kind::kNull:
      *out += "null";
      return;
    case JsonValue::Kind::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber:
      *out += JsonNumber(number_);
      return;
    case JsonValue::Kind::kString:
      *out += '"';
      JsonEscape(string_, out);
      *out += '"';
      return;
    case JsonValue::Kind::kArray: {
      *out += '[';
      bool first = true;
      for (const JsonValue& e : array_) {
        if (!first) *out += ',';
        first = false;
        e.SerializeTo(out);
      }
      *out += ']';
      return;
    }
    case JsonValue::Kind::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [k, e] : members_) {
        if (!first) *out += ',';
        first = false;
        *out += '"';
        JsonEscape(k, out);
        *out += "\":";
        e.SerializeTo(out);
      }
      *out += '}';
      return;
    }
  }
}

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeTo(&out);
  return out;
}

bool JsonValue::Equals(const JsonValue& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return bool_ == other.bool_;
    case Kind::kNumber:
      return number_ == other.number_;
    case Kind::kString:
      return string_ == other.string_;
    case Kind::kArray: {
      if (array_.size() != other.array_.size()) return false;
      for (size_t i = 0; i < array_.size(); ++i) {
        if (!array_[i].Equals(other.array_[i])) return false;
      }
      return true;
    }
    case Kind::kObject: {
      if (members_.size() != other.members_.size()) return false;
      for (const auto& [k, v] : members_) {
        const JsonValue* o = other.Find(k);
        if (o == nullptr || !v.Equals(*o)) return false;
      }
      return true;
    }
  }
  return false;
}

namespace {

/// Recursive-descent parser over the input view; `pos` advances as tokens
/// are consumed. Depth is bounded so corrupt input cannot blow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    LIPSTICK_ASSIGN_OR_RETURN(JsonValue v, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Err("trailing characters after JSON document");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Err(const std::string& msg) const {
    return Status::InvalidArgument(
        StrCat("json: ", msg, " at offset ", pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Err("expected '\"'");
    // Escapes only shrink, so the distance to the closing quote bounds the
    // output: size it once. An unterminated literal reserves the rest of
    // the input; the loop below reports it.
    size_t close = pos_;
    while ((close = FindQuoteOrBackslash(text_, close)) < text_.size() &&
           text_[close] == '\\') {
      close += 2;
    }
    std::string out;
    out.reserve(std::min(close, text_.size()) - pos_);
    while (true) {
      size_t stop = FindQuoteOrBackslash(text_, pos_);
      out.append(text_.data() + pos_, stop - pos_);
      pos_ = stop;
      if (pos_ == text_.size()) break;
      if (text_[pos_++] == '"') return out;
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return Err("bad \\u escape");
          }
          // UTF-8 encode (surrogate pairs are not combined: the exporters
          // never emit them, and lone surrogates round-trip as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          return Err("bad escape character");
      }
    }
    return Err("unterminated string");
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      JsonValue obj = JsonValue::Object();
      SkipWhitespace();
      if (Consume('}')) return obj;
      while (true) {
        SkipWhitespace();
        LIPSTICK_ASSIGN_OR_RETURN(std::string key, ParseString());
        SkipWhitespace();
        if (!Consume(':')) return Err("expected ':'");
        LIPSTICK_ASSIGN_OR_RETURN(JsonValue v, ParseValue(depth + 1));
        obj.Set(std::move(key), std::move(v));
        SkipWhitespace();
        if (Consume('}')) return obj;
        if (!Consume(',')) return Err("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos_;
      JsonValue arr = JsonValue::Array();
      SkipWhitespace();
      if (Consume(']')) return arr;
      while (true) {
        LIPSTICK_ASSIGN_OR_RETURN(JsonValue v, ParseValue(depth + 1));
        arr.Push(std::move(v));
        SkipWhitespace();
        if (Consume(']')) return arr;
        if (!Consume(',')) return Err("expected ',' or ']'");
      }
    }
    if (c == '"') {
      LIPSTICK_ASSIGN_OR_RETURN(std::string s, ParseString());
      return JsonValue::Str(std::move(s));
    }
    if (ConsumeWord("true")) return JsonValue::Bool(true);
    if (ConsumeWord("false")) return JsonValue::Bool(false);
    if (ConsumeWord("null")) return JsonValue::Null();
    if (c == '-' || (c >= '0' && c <= '9')) {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
              text_[pos_] == 'e' || text_[pos_] == 'E' ||
              (text_[pos_] >= '0' && text_[pos_] <= '9'))) {
        ++pos_;
      }
      std::string token(text_.substr(start, pos_ - start));
      char* end = nullptr;
      double d = std::strtod(token.c_str(), &end);
      if (end == token.c_str() || *end != '\0') return Err("bad number");
      return JsonValue::Number(d);
    }
    return Err("unexpected character");
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace lipstick::obs
