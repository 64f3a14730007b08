// Gorilla-style time-series compression (Pelkonen et al., VLDB'15):
// delta-of-delta timestamps + XOR-encoded doubles. This implements the
// paper's "in-situ data compression ... which aids in reducing data
// transfers" (§III-A) for the TSDB substrate.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "telemetry/metric.hpp"

namespace dust::telemetry {

/// Append-only bit stream.
class BitWriter {
 public:
  void write_bit(bool bit);
  /// Write the low `bits` bits of `value`, most-significant first. bits<=64.
  void write_bits(std::uint64_t value, unsigned bits);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return data_;
  }
  [[nodiscard]] std::size_t bit_count() const noexcept { return bit_count_; }

  /// Adopt an already-encoded bit stream wholesale (the data-plane receive
  /// path: the payload crossed the wire verbatim, no reason to replay it bit
  /// by bit). Throws std::invalid_argument when `bit_count` does not fit
  /// `data`.
  static BitWriter from_bytes(std::vector<std::uint8_t> data,
                              std::size_t bit_count);

 private:
  std::vector<std::uint8_t> data_;
  std::size_t bit_count_ = 0;
};

class BitReader {
 public:
  BitReader(const std::vector<std::uint8_t>& data, std::size_t bit_count)
      : data_(data), bit_count_(bit_count) {}

  bool read_bit();
  std::uint64_t read_bits(unsigned bits);
  [[nodiscard]] bool exhausted() const noexcept { return cursor_ >= bit_count_; }

 private:
  const std::vector<std::uint8_t>& data_;
  std::size_t bit_count_;
  std::size_t cursor_ = 0;
};

/// One compressed block of a single series. Samples must be appended in
/// non-decreasing timestamp order.
class CompressedBlock {
 public:
  void append(const Sample& sample);

  [[nodiscard]] std::size_t sample_count() const noexcept { return count_; }
  [[nodiscard]] std::size_t compressed_bytes() const noexcept {
    return writer_.bytes().size();
  }
  [[nodiscard]] std::int64_t first_timestamp_ms() const noexcept {
    return first_timestamp_;
  }
  [[nodiscard]] std::int64_t last_timestamp_ms() const noexcept {
    return prev_timestamp_;
  }
  /// Value of the last sample, kept by the XOR encoder — no decode needed.
  /// 0.0 for an empty block.
  [[nodiscard]] double last_value() const noexcept;

  /// Decode the whole block.
  [[nodiscard]] std::vector<Sample> decode() const;

  /// Compression ratio vs. raw (16 bytes/sample); >= 1 means smaller.
  [[nodiscard]] double compression_ratio() const;

  /// Binary (de)serialization of the block including its append state, so a
  /// restored block can keep accepting samples. Format is little-endian and
  /// versioned; deserialize throws std::runtime_error on corrupt input.
  void serialize(std::ostream& os) const;
  static CompressedBlock deserialize(std::istream& is);

  /// The raw encoded bit stream — what the data plane puts on the wire
  /// (scatter-gathered, never copied into the codec buffer).
  [[nodiscard]] const std::vector<std::uint8_t>& payload() const noexcept {
    return writer_.bytes();
  }
  [[nodiscard]] std::size_t payload_bit_count() const noexcept {
    return writer_.bit_count();
  }

  /// Rebuild a block from its wire form (payload + framing metadata). The
  /// result is read-only in spirit: decode() and last_value() work, but the
  /// XOR window and timestamp delta are not recovered, so appending to it
  /// would corrupt the stream. Throws std::invalid_argument on inconsistent
  /// sizes.
  static CompressedBlock from_wire(std::vector<std::uint8_t> payload,
                                   std::size_t bit_count,
                                   std::size_t sample_count,
                                   std::int64_t first_timestamp_ms,
                                   std::int64_t last_timestamp_ms,
                                   double last_value);

 private:
  BitWriter writer_;
  std::size_t count_ = 0;
  std::int64_t first_timestamp_ = 0;
  std::int64_t prev_timestamp_ = 0;
  std::int64_t prev_delta_ = 0;
  std::uint64_t prev_value_bits_ = 0;
  unsigned prev_leading_ = 0;
  unsigned prev_trailing_ = 0;
  bool has_window_ = false;
};

}  // namespace dust::telemetry
