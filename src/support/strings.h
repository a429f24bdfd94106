// Small string formatting helpers (libstdc++ 12 lacks <format>).
#pragma once

#include <charconv>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

namespace qvliw {

namespace detail {

template <typename T, typename... Choices>
inline constexpr bool kOneOf = (std::is_same_v<T, Choices> || ...);

/// Appends `value` as std::ostringstream would print it.  Text and `char`
/// are appended and integers written with std::to_chars, so the names the
/// compile path builds need no stream; every other type (double, bool,
/// std::uint8_t, types with their own operator<<) goes through a stream.
template <typename T>
void append(std::string& out, const T& value) {
  if constexpr (kOneOf<T, std::string, std::string_view> ||
                kOneOf<std::decay_t<T>, const char*, char*>) {
    out.append(std::string_view(value));
  } else if constexpr (std::is_same_v<T, char>) {
    out.push_back(value);
  } else if constexpr (kOneOf<T, short, unsigned short, int, unsigned, long, unsigned long,
                              long long, unsigned long long>) {
    char digits[std::numeric_limits<T>::digits10 + 2];  // one more digit, and a sign
    const char* end = std::to_chars(digits, digits + sizeof digits, value).ptr;
    // Pointer and count: the iterator-pair append trips GCC 12's -Wrestrict at -O3.
    out.append(digits, static_cast<std::size_t>(end - digits));
  } else {
    std::ostringstream os;
    os << value;
    out += os.str();
  }
}

}  // namespace detail

/// Concatenates all arguments into one string, each printed as operator<<
/// prints it.
template <typename... Args>
std::string cat(const Args&... args) {
  std::string out;
  (detail::append(out, args), ...);
  return out;
}

/// Formats `value` with `digits` digits after the decimal point.
std::string fixed(double value, int digits);

/// Formats a fraction in [0,1] as a percentage like "95.2%".
std::string percent(double fraction, int digits = 1);

/// Left/right pads `text` with spaces to `width` characters.
std::string pad_left(std::string_view text, std::size_t width);
std::string pad_right(std::string_view text, std::size_t width);

}  // namespace qvliw
