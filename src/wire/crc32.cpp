#include "wire/crc32.hpp"

#include <array>

namespace dust::wire {

namespace {

using Table = std::array<std::array<std::uint32_t, 256>, 8>;

// Slice-by-8 tables: kTables[0] is the classic bytewise table; kTables[k][b]
// is the CRC of byte b followed by k zero bytes, so eight table lookups
// advance the state over eight input bytes at once.
constexpr Table make_tables() noexcept {
  Table tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      tables[k][i] =
          (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xFFu];
  return tables;
}

constexpr Table kTables = make_tables();

/// Little-endian 32-bit load from any alignment (one mov on x86/ARM).
std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, const void* data,
                           std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = load_le32(bytes) ^ state;
    const std::uint32_t hi = load_le32(bytes + 4);
    state = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size)
    state = kTables[0][(state ^ *bytes) & 0xFFu] ^ (state >> 8);
  return state;
}

}  // namespace dust::wire
