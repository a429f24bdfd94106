#include "support/strings.h"

#include <iomanip>

namespace qvliw {

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
