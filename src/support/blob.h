// Portable binary blob format.
//
// BlobWriter / BlobReader are the one serialisation layer of the project:
// fixed-width little-endian integers, IEEE-754 doubles as their bit
// patterns, and u64-length-prefixed strings.  The loop, machine, schedule
// and verify-bundle codecs are written on top of them, and
// Loop::content_hash hashes serialize_loop's bytes.  Every decoder reads
// through BlobReader, so an out-of-bounds read is an Error, never a
// crash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace qvliw {

/// Append-only builder of a blob.
class BlobWriter {
 public:
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  void put_i32(std::int32_t v);
  void put_bool(bool v);
  void put_f64(double v);               // IEEE-754 bits as a u64
  void put_string(std::string_view s);  // u64 length + bytes

  [[nodiscard]] std::string take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Sequential reader over a blob.  Any out-of-bounds read throws Error.
class BlobReader {
 public:
  explicit BlobReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int64_t get_i64();
  [[nodiscard]] std::int32_t get_i32();
  [[nodiscard]] bool get_bool();
  [[nodiscard]] double get_f64();
  [[nodiscard]] std::string get_string();

  /// True when every byte has been consumed.
  [[nodiscard]] bool exhausted() const { return cursor_ == bytes_.size(); }

  /// Throws Error("<what>: trailing bytes") unless exhausted.  Every
  /// top-level decoder must end with this: a blob that decodes cleanly but
  /// has bytes left over is a *different* (longer, future-format) blob,
  /// and accepting it would silently drop the fields it does not know.
  void require_exhausted(std::string_view what) const;

 private:
  std::string_view bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace qvliw
