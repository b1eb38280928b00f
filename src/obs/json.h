#ifndef LIPSTICK_OBS_JSON_H_
#define LIPSTICK_OBS_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace lipstick::obs {

/// Minimal JSON document model used by the observability layer: the trace
/// and metrics exporters emit JSON, and the test suite (plus tools that
/// ingest exported files) must be able to parse it back and compare
/// round-trips without an external dependency. Numbers are kept as
/// doubles; object member order is preserved so serialization is stable.
class JsonValue {
 public:
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double d);
  static JsonValue Str(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number() const { return number_; }
  const std::string& str() const { return string_; }
  /// Mutable string, so a caller done with the document can move it out.
  std::string& str() { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  std::vector<JsonValue>& array() { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  JsonValue* Find(std::string_view key) {
    return const_cast<JsonValue*>(std::as_const(*this).Find(key));
  }

  void Push(JsonValue v) { array_.push_back(std::move(v)); }
  void Set(std::string key, JsonValue v) {
    members_.emplace_back(std::move(key), std::move(v));
  }

  /// Serializes back to JSON text (no insignificant whitespace). Numbers
  /// that are integral print without a decimal point, so round-trips of
  /// exported files are textually stable.
  std::string Serialize() const;
  /// Appends the same text to `*out`, so a caller can serialize straight
  /// into a buffer it has already sized (the serve daemon's frames).
  void SerializeTo(std::string* out) const;

  /// Deep structural equality (object member *order* is ignored).
  bool Equals(const JsonValue& other) const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses one JSON document; trailing non-whitespace is an error.
Result<JsonValue> ParseJson(std::string_view text);

/// Escapes `s` for inclusion inside a JSON string literal (no quotes):
/// `"` and `\` take a backslash, \n \r \t their short escapes, and every
/// other byte below 0x20 a \u00xx escape; all other bytes, UTF-8
/// included, pass through. Runs of bytes that need no escape are copied
/// whole, found a word at a time.
std::string JsonEscape(std::string_view s);
/// Appends the escaped form of `s` to `*out`.
void JsonEscape(std::string_view s, std::string* out);

/// Formats a double the way the obs exporters do: integral values without
/// a decimal point, everything else with enough digits to round-trip.
std::string JsonNumber(double d);

}  // namespace lipstick::obs

#endif  // LIPSTICK_OBS_JSON_H_
