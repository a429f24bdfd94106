#include "support/blob.h"

#include <bit>

#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

void BlobWriter::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void BlobWriter::put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

void BlobWriter::put_i32(std::int32_t v) {
  const auto u = static_cast<std::uint32_t>(v);
  for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<char>((u >> (8 * i)) & 0xffu));
}

void BlobWriter::put_bool(bool v) { bytes_.push_back(v ? '\1' : '\0'); }

void BlobWriter::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void BlobWriter::put_string(std::string_view s) {
  put_u64(s.size());
  bytes_.append(s);
}

std::uint64_t BlobReader::get_u64() {
  check(cursor_ + 8 <= bytes_.size(), "BlobReader: truncated u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[cursor_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  cursor_ += 8;
  return v;
}

std::int64_t BlobReader::get_i64() { return static_cast<std::int64_t>(get_u64()); }

std::int32_t BlobReader::get_i32() {
  check(cursor_ + 4 <= bytes_.size(), "BlobReader: truncated i32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes_[cursor_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  cursor_ += 4;
  return static_cast<std::int32_t>(v);
}

bool BlobReader::get_bool() {
  check(cursor_ + 1 <= bytes_.size(), "BlobReader: truncated bool");
  return bytes_[cursor_++] != '\0';
}

double BlobReader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::string BlobReader::get_string() {
  const std::uint64_t size = get_u64();
  check(size <= bytes_.size() - cursor_, "BlobReader: truncated string");
  std::string out(bytes_.substr(cursor_, size));
  cursor_ += size;
  return out;
}

void BlobReader::require_exhausted(std::string_view what) const {
  if (!exhausted()) fail(cat(what, ": trailing bytes"));
}

}  // namespace qvliw
