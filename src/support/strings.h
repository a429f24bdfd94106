// Small string formatting helpers (libstdc++ 12 lacks <format>).
#pragma once

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace qvliw {

namespace detail {
inline void cat_into(std::ostringstream&) {}
template <typename T, typename... Rest>
void cat_into(std::ostringstream& os, const T& head, const Rest&... rest) {
  os << head;
  cat_into(os, rest...);
}
}  // namespace detail

/// Concatenates all arguments with operator<< into one string.
template <typename... Args>
std::string cat(const Args&... args) {
  std::ostringstream os;
  detail::cat_into(os, args...);
  return os.str();
}

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Formats `value` with `digits` digits after the decimal point.
std::string fixed(double value, int digits);

/// Formats a fraction in [0,1] as a percentage like "95.2%".
std::string percent(double fraction, int digits = 1);

/// Left/right pads `text` with spaces to `width` characters.
std::string pad_left(std::string_view text, std::size_t width);
std::string pad_right(std::string_view text, std::size_t width);

}  // namespace qvliw
