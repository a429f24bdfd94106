// ASCII table rendering for the benchmark harness: benches print
// paper-figure-shaped tables with `TextTable`.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

namespace qvliw {

/// One table cell: text, integer, or real (printed with two decimals).
using Cell = std::variant<std::string, std::int64_t, double>;

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Appends one row; must match the header count.
  void add_row(std::vector<Cell> cells);

  /// Renders with column alignment (numbers right, text left).
  void render(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t columns() const { return headers_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace qvliw
