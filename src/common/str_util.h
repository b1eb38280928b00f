#ifndef LIPSTICK_COMMON_STR_UTIL_H_
#define LIPSTICK_COMMON_STR_UTIL_H_

#include <charconv>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace lipstick {

namespace internal {

/// One StrCat argument as the characters `std::ostream <<` prints for it
/// under the "C" locale: strings and characters as they are, other
/// integers through std::to_chars, bool as 1/0, anything else (floating
/// point, enums, Status, ...) through a stream of its own. Only
/// constructed in place by StrCat: `view_` may point into the piece.
class StrCatPiece {
 public:
  template <typename T>
  explicit StrCatPiece(const T& v) {
    static_assert(!std::is_function_v<std::remove_pointer_t<T>>,
                  "StrCat takes no stream manipulators");
    if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      view_ = v;
    } else if constexpr (std::is_same_v<T, char> ||
                         std::is_same_v<T, signed char> ||
                         std::is_same_v<T, unsigned char>) {
      digits_[0] = static_cast<char>(v);
      view_ = std::string_view(digits_, 1);
    } else if constexpr (std::is_same_v<T, bool>) {
      view_ = v ? "1" : "0";
    } else if constexpr (std::is_integral_v<T>) {
      const std::to_chars_result r =
          std::to_chars(digits_, digits_ + sizeof digits_, v);
      view_ = std::string_view(digits_, static_cast<size_t>(r.ptr - digits_));
    } else {
      std::ostringstream os;
      os << v;
      owned_ = std::move(os).str();
      view_ = owned_;
    }
  }
  StrCatPiece(const StrCatPiece&) = delete;
  StrCatPiece& operator=(const StrCatPiece&) = delete;

  std::string_view view() const { return view_; }

 private:
  std::string_view view_;
  char digits_[24];  // the longest 64-bit integer is 20 characters
  std::string owned_;
};

}  // namespace internal

/// Concatenates the string representations of all arguments, byte for
/// byte what streaming them into one std::ostringstream prints (see
/// internal::StrCatPiece). The result is allocated once, at its exact
/// size, so a name of integers and strings costs at most one allocation.
template <typename... Args>
std::string StrCat(const Args&... args) {
  if constexpr (sizeof...(Args) == 0) {
    return std::string();
  } else {
    const internal::StrCatPiece pieces[] = {internal::StrCatPiece(args)...};
    size_t size = 0;
    for (const internal::StrCatPiece& p : pieces) size += p.view().size();
    std::string out(size, '\0');
    char* at = out.data();
    for (const internal::StrCatPiece& p : pieces) {
      at += p.view().copy(at, p.view().size());
    }
    return out;
  }
}

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on the character `sep`; no trimming, keeps empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// ASCII lower-casing (Pig Latin keywords are case-insensitive).
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

}  // namespace lipstick

#endif  // LIPSTICK_COMMON_STR_UTIL_H_
