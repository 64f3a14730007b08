// CRC-32 (IEEE): the known answer, and the slice-by-8 update held to a
// bytewise table over lengths, misaligned starts and split update chains.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "wire/crc32.hpp"

namespace dust::wire {
namespace {

// The textbook bytewise CRC-32: one table lookup per input byte.
std::uint32_t bytewise_update(std::uint32_t state, const std::uint8_t* data,
                              std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  for (std::size_t i = 0; i < size; ++i)
    state = table[(state ^ data[i]) & 0xFFu] ^ (state >> 8);
  return state;
}

std::vector<std::uint8_t> random_bytes(std::size_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> bytes(size);
  for (std::uint8_t& byte : bytes) byte = static_cast<std::uint8_t>(rng());
  return bytes;
}

TEST(Crc32, KnownAnswer) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, MatchesBytewiseAtEveryLengthAndAlignment) {
  const std::vector<std::uint8_t> bytes = random_bytes(1024 + 8, 1);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; size + offset <= bytes.size() && size <= 1024;
         ++size) {
      const std::uint8_t* start = bytes.data() + offset;
      ASSERT_EQ(crc32_update(crc32_init(), start, size),
                bytewise_update(crc32_init(), start, size))
          << "offset " << offset << " size " << size;
    }
  }
}

TEST(Crc32, SplitUpdateChainsMatchOneShot) {
  util::Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t size = rng.below(1025);
    const std::vector<std::uint8_t> bytes = random_bytes(size, 100 + trial);
    const std::uint32_t one_shot = crc32(bytes.data(), bytes.size());
    ASSERT_EQ(one_shot, crc32_final(bytewise_update(crc32_init(),
                                                    bytes.data(), size)));
    std::uint32_t state = crc32_init();
    for (std::size_t done = 0; done < size;) {
      const std::size_t piece = std::min<std::size_t>(rng.below(20), size - done);
      state = crc32_update(state, bytes.data() + done, piece);
      done += piece;
    }
    ASSERT_EQ(crc32_final(state), one_shot) << "trial " << trial;
  }
}

}  // namespace
}  // namespace dust::wire
