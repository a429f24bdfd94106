#include "support/table.h"

#include <algorithm>

#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
  check(!headers_.empty(), "TextTable needs at least one column");
}

void TextTable::add_row(std::vector<Cell> cells) {
  check(cells.size() == headers_.size(), "TextTable row width mismatch");
  rows_.push_back(std::move(cells));
}

namespace {

std::string cell_text(const Cell& cell) {
  if (const auto* text = std::get_if<std::string>(&cell)) return *text;
  if (const auto* integer = std::get_if<std::int64_t>(&cell)) return std::to_string(*integer);
  return fixed(std::get<double>(cell), 2);
}

}  // namespace

void TextTable::render(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      cells.push_back(cell_text(row[c]));
      widths[c] = std::max(widths[c], cells.back().size());
    }
    rendered.push_back(std::move(cells));
  }

  auto rule = [&] {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      os << '+' << std::string(widths[c] + 2, '-');
    }
    os << "+\n";
  };

  rule();
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << ' ' << pad_right(headers_[c], widths[c]) << " |";
  }
  os << '\n';
  rule();
  for (std::size_t r = 0; r < rendered.size(); ++r) {
    os << '|';
    for (std::size_t c = 0; c < rendered[r].size(); ++c) {
      const bool numeric = !std::holds_alternative<std::string>(rows_[r][c]);
      os << ' ' << (numeric ? pad_left(rendered[r][c], widths[c]) : pad_right(rendered[r][c], widths[c]))
         << " |";
    }
    os << '\n';
  }
  rule();
}

}  // namespace qvliw
