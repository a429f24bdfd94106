#include "support/strings.h"

#include <iomanip>

namespace qvliw {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string fixed(double value, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << value;
  return os.str();
}

std::string percent(double fraction, int digits) {
  return fixed(fraction * 100.0, digits) + "%";
}

std::string pad_left(std::string_view text, std::size_t width) {
  if (text.size() >= width) return std::string(text);
  return std::string(width - text.size(), ' ') + std::string(text);
}

std::string pad_right(std::string_view text, std::size_t width) {
  if (text.size() >= width) return std::string(text);
  return std::string(text) + std::string(width - text.size(), ' ');
}

}  // namespace qvliw
