// Little-endian byte writer/reader shared by the wire codec (wire/codec.cpp)
// and the obs snapshot codec (obs/snapshot.cpp).
//
// Explicit byte-at-a-time shifts: identical bytes on any host endianness,
// and no alignment requirements on the buffer. The writer appends to a
// caller-owned buffer. The reader never throws and never reads past its
// span: the first short read latches ok() to false and every later read
// returns a zero value, so a decoder parses straight through and checks
// ok() once at the end.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dust::util {

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(&out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Raw IEEE-754 bits: bit-identical round trip, NaNs included.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// u16 length prefix + bytes. Throws std::invalid_argument past 0xFFFF
  /// bytes; a caller that prefers to truncate passes a shortened view.
  void str16(std::string_view s) {
    if (s.size() > 0xFFFF)
      throw std::invalid_argument("string exceeds u16 length prefix");
    u16(static_cast<std::uint16_t>(s.size()));
    out_->insert(out_->end(), s.begin(), s.end());
  }

 private:
  std::vector<std::uint8_t>* out_;
};

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == size_; }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return data_[pos_ - 1];
  }
  std::uint16_t u16() {
    if (!take(2)) return 0;
    return static_cast<std::uint16_t>(data_[pos_ - 2] |
                                      (data_[pos_ - 1] << 8));
  }
  std::uint32_t u32() {
    const std::uint32_t lo = u16();
    const std::uint32_t hi = u16();
    return lo | (hi << 16);
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str16() {
    const std::uint16_t n = u16();
    if (!take(n)) return {};
    return std::string(reinterpret_cast<const char*>(data_ + pos_ - n), n);
  }
  std::vector<std::uint8_t> bytes(std::size_t n) {
    if (!take(n)) return {};
    return std::vector<std::uint8_t>(data_ + pos_ - n, data_ + pos_);
  }
  /// Element-count prefix with a sanity bound: each element is at least
  /// `min_element_bytes`, so a corrupt count that could not possibly fit in
  /// the remaining bytes fails fast instead of looping or ballooning a
  /// reserve.
  std::uint32_t count32(std::size_t min_element_bytes) {
    const std::uint32_t n = u32();
    if (min_element_bytes > 0 &&
        static_cast<std::uint64_t>(n) * min_element_bytes > size_ - pos_)
      ok_ = false;
    return ok_ ? n : 0;
  }

 private:
  bool take(std::size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace dust::util
