#include "telemetry/gorilla.hpp"

#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace dust::telemetry {

void BitWriter::write_bit(bool bit) {
  const std::size_t byte = bit_count_ / 8;
  if (byte == data_.size()) data_.push_back(0);
  if (bit) data_[byte] |= static_cast<std::uint8_t>(0x80u >> (bit_count_ % 8));
  ++bit_count_;
}

void BitWriter::write_bits(std::uint64_t value, unsigned bits) {
  if (bits > 64) throw std::invalid_argument("BitWriter::write_bits: bits > 64");
  if (bits == 0) return;
  const unsigned used = bit_count_ % 8;  // bits already in the partial byte
  if (used + bits > 64) {
    // The field straddles nine bytes: two writes that each fit one word.
    write_bits(value >> 32, bits - 32);
    write_bits(value, 32);
    return;
  }
  if (bits < 64) value &= (std::uint64_t{1} << bits) - 1;
  // Assemble the partial last byte and the new field in one MSB-aligned
  // word (padding past bit_count_ is zero, so OR-ing it in is exact), then
  // store the word's bytes: the partial byte in place, the rest appended.
  const std::size_t pos = bit_count_ / 8;
  const unsigned span = used + bits;
  std::uint64_t word = value << (64 - span);
  unsigned byte = 0;
  if (used > 0) {
    word |= static_cast<std::uint64_t>(data_[pos]) << 56;
    data_[pos] = static_cast<std::uint8_t>(word >> 56);
    byte = 1;
  }
  for (; byte < (span + 7) / 8; ++byte)
    data_.push_back(static_cast<std::uint8_t>(word >> (56 - 8 * byte)));
  bit_count_ += bits;
}

BitWriter BitWriter::from_bytes(std::vector<std::uint8_t> data,
                                std::size_t bit_count) {
  if (data.size() != (bit_count + 7) / 8)
    throw std::invalid_argument("BitWriter::from_bytes: inconsistent sizes");
  BitWriter writer;
  writer.data_ = std::move(data);
  writer.bit_count_ = bit_count;
  return writer;
}

bool BitReader::read_bit() {
  if (cursor_ >= bit_count_)
    throw std::out_of_range("BitReader: read past end");
  const bool bit =
      (data_[cursor_ / 8] >> (7 - cursor_ % 8)) & 1u;
  ++cursor_;
  return bit;
}

std::uint64_t BitReader::read_bits(unsigned bits) {
  std::uint64_t value = 0;
  for (unsigned i = 0; i < bits; ++i) value = (value << 1) | (read_bit() ? 1u : 0u);
  return value;
}

namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Zig-zag to keep small signed deltas in few bits.
std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

}  // namespace

void CompressedBlock::append(const Sample& sample) {
  if (count_ > 0 && sample.timestamp_ms < prev_timestamp_)
    throw std::invalid_argument("CompressedBlock: timestamps must not decrease");

  // --- timestamp ---
  if (count_ == 0) {
    first_timestamp_ = prev_timestamp_ = sample.timestamp_ms;
    writer_.write_bits(static_cast<std::uint64_t>(sample.timestamp_ms), 64);
  } else {
    const std::int64_t delta = sample.timestamp_ms - prev_timestamp_;
    const std::int64_t dod = delta - prev_delta_;
    // Control bits and field go out in one write. Each bucket keeps |dod|
    // within 2^(w-1) - 1 so the zigzagged value fits its w-bit field.
    if (dod == 0) {
      writer_.write_bit(false);                               // '0'
    } else if (dod >= -63 && dod <= 63) {
      writer_.write_bits((0b10u << 7) | zigzag(dod), 9);      // '10' + 7
    } else if (dod >= -255 && dod <= 255) {
      writer_.write_bits((0b110u << 9) | zigzag(dod), 12);    // '110' + 9
    } else if (dod >= -2047 && dod <= 2047) {
      writer_.write_bits((0b1110u << 12) | zigzag(dod), 16);  // '1110' + 12
    } else {
      writer_.write_bits(0b1111, 4);                          // '1111' + 64
      writer_.write_bits(zigzag(dod), 64);
    }
    prev_delta_ = delta;
    prev_timestamp_ = sample.timestamp_ms;
  }

  // --- value ---
  const std::uint64_t bits = double_bits(sample.value);
  if (count_ == 0) {
    writer_.write_bits(bits, 64);
  } else {
    const std::uint64_t x = bits ^ prev_value_bits_;
    if (x == 0) {
      writer_.write_bit(false);  // '0': value repeats
    } else {
      auto leading = static_cast<unsigned>(std::countl_zero(x));
      auto trailing = static_cast<unsigned>(std::countr_zero(x));
      if (leading > 31) leading = 31;  // cap so the window field fits
      if (has_window_ && leading >= prev_leading_ && trailing >= prev_trailing_) {
        // '10' + the meaningful bits in the previous window.
        const unsigned length = 64 - prev_leading_ - prev_trailing_;
        const std::uint64_t meaningful = x >> prev_trailing_;
        if (length <= 62) {
          writer_.write_bits((std::uint64_t{0b10} << length) | meaningful,
                             length + 2);
        } else {
          writer_.write_bits(0b10, 2);
          writer_.write_bits(meaningful, length);
        }
      } else {
        // '11' + 6-bit leading zeros + 6-bit length - 1 (length in [1, 64])
        // + the meaningful bits of a new window.
        const unsigned length = 64 - leading - trailing;
        writer_.write_bits((0b11u << 12) | (leading << 6) | (length - 1), 14);
        writer_.write_bits(x >> trailing, length);
        prev_leading_ = leading;
        prev_trailing_ = trailing;
        has_window_ = true;
      }
    }
  }
  prev_value_bits_ = bits;
  ++count_;
}

std::vector<Sample> CompressedBlock::decode() const {
  std::vector<Sample> samples;
  samples.reserve(count_);
  if (count_ == 0) return samples;
  BitReader reader(writer_.bytes(), writer_.bit_count());

  std::int64_t timestamp =
      static_cast<std::int64_t>(reader.read_bits(64));
  std::uint64_t value_bits = reader.read_bits(64);
  samples.push_back(Sample{timestamp, bits_double(value_bits)});

  std::int64_t delta = 0;
  unsigned leading = 0, trailing = 0;
  for (std::size_t i = 1; i < count_; ++i) {
    // timestamp
    std::int64_t dod = 0;
    if (!reader.read_bit()) {
      dod = 0;
    } else if (!reader.read_bit()) {
      dod = unzigzag(reader.read_bits(7));
    } else if (!reader.read_bit()) {
      dod = unzigzag(reader.read_bits(9));
    } else if (!reader.read_bit()) {
      dod = unzigzag(reader.read_bits(12));
    } else {
      dod = unzigzag(reader.read_bits(64));
    }
    delta += dod;
    timestamp += delta;
    // value
    if (reader.read_bit()) {
      if (reader.read_bit()) {
        leading = static_cast<unsigned>(reader.read_bits(6));
        const unsigned length = static_cast<unsigned>(reader.read_bits(6)) + 1;
        // The encoder never writes a window wider than the word; one that
        // is would make `trailing` wrap and the shift below undefined.
        if (leading + length > 64)
          throw std::runtime_error("CompressedBlock: corrupt XOR window");
        trailing = 64 - leading - length;
        value_bits ^= reader.read_bits(length) << trailing;
      } else {
        const unsigned length = 64 - leading - trailing;
        value_bits ^= reader.read_bits(length) << trailing;
      }
    }
    samples.push_back(Sample{timestamp, bits_double(value_bits)});
  }
  return samples;
}

namespace {

constexpr std::uint32_t kBlockMagic = 0x44535442;  // "DSTB"
constexpr std::uint32_t kBlockVersion = 1;

template <typename T>
void put(std::ostream& os, T value) {
  // Little-endian regardless of host (portable snapshots).
  for (std::size_t i = 0; i < sizeof(T); ++i)
    os.put(static_cast<char>((static_cast<std::uint64_t>(value) >> (8 * i)) &
                             0xff));
}

template <typename T>
T get(std::istream& is) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    const int byte = is.get();
    if (byte == std::char_traits<char>::eof())
      throw std::runtime_error("CompressedBlock: truncated stream");
    value |= static_cast<std::uint64_t>(byte & 0xff) << (8 * i);
  }
  return static_cast<T>(value);
}

}  // namespace

void CompressedBlock::serialize(std::ostream& os) const {
  put(os, kBlockMagic);
  put(os, kBlockVersion);
  put(os, static_cast<std::uint64_t>(count_));
  put(os, static_cast<std::uint64_t>(first_timestamp_));
  put(os, static_cast<std::uint64_t>(prev_timestamp_));
  put(os, static_cast<std::uint64_t>(prev_delta_));
  put(os, prev_value_bits_);
  put(os, static_cast<std::uint32_t>(prev_leading_));
  put(os, static_cast<std::uint32_t>(prev_trailing_));
  put(os, static_cast<std::uint8_t>(has_window_ ? 1 : 0));
  put(os, static_cast<std::uint64_t>(writer_.bit_count()));
  const auto& bytes = writer_.bytes();
  put(os, static_cast<std::uint64_t>(bytes.size()));
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

CompressedBlock CompressedBlock::deserialize(std::istream& is) {
  if (get<std::uint32_t>(is) != kBlockMagic)
    throw std::runtime_error("CompressedBlock: bad magic");
  if (get<std::uint32_t>(is) != kBlockVersion)
    throw std::runtime_error("CompressedBlock: unsupported version");
  CompressedBlock block;
  block.count_ = static_cast<std::size_t>(get<std::uint64_t>(is));
  block.first_timestamp_ = static_cast<std::int64_t>(get<std::uint64_t>(is));
  block.prev_timestamp_ = static_cast<std::int64_t>(get<std::uint64_t>(is));
  block.prev_delta_ = static_cast<std::int64_t>(get<std::uint64_t>(is));
  block.prev_value_bits_ = get<std::uint64_t>(is);
  block.prev_leading_ = get<std::uint32_t>(is);
  block.prev_trailing_ = get<std::uint32_t>(is);
  block.has_window_ = get<std::uint8_t>(is) != 0;
  const auto bit_count = static_cast<std::size_t>(get<std::uint64_t>(is));
  const auto byte_count = static_cast<std::size_t>(get<std::uint64_t>(is));
  if (byte_count != (bit_count + 7) / 8)
    throw std::runtime_error("CompressedBlock: inconsistent sizes");
  std::vector<std::uint8_t> bytes(byte_count);
  is.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(byte_count));
  if (static_cast<std::size_t>(is.gcount()) != byte_count)
    throw std::runtime_error("CompressedBlock: truncated payload");
  // The writer ORs its next field into the partial last byte, so bits past
  // bit_count must be zero or the restored block's next append corrupts.
  if (bit_count % 8 != 0 &&
      (bytes.back() & (0xFFu >> (bit_count % 8))) != 0)
    throw std::runtime_error("CompressedBlock: non-zero padding bits");
  block.writer_ = BitWriter::from_bytes(std::move(bytes), bit_count);
  return block;
}

CompressedBlock CompressedBlock::from_wire(std::vector<std::uint8_t> payload,
                                           std::size_t bit_count,
                                           std::size_t sample_count,
                                           std::int64_t first_timestamp_ms,
                                           std::int64_t last_timestamp_ms,
                                           double last_value) {
  CompressedBlock block;
  block.writer_ = BitWriter::from_bytes(std::move(payload), bit_count);
  block.count_ = sample_count;
  block.first_timestamp_ = first_timestamp_ms;
  block.prev_timestamp_ = last_timestamp_ms;
  block.prev_value_bits_ = double_bits(last_value);
  return block;
}

double CompressedBlock::last_value() const noexcept {
  return bits_double(prev_value_bits_);
}

double CompressedBlock::compression_ratio() const {
  if (count_ == 0) return 1.0;
  const double raw = static_cast<double>(count_) * 16.0;
  const double stored = static_cast<double>(compressed_bytes());
  return stored > 0 ? raw / stored : 1.0;
}

}  // namespace dust::telemetry
