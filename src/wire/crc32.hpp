// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected) for wire framing.
//
// Self-contained so the codec carries no external dependency; slice-by-8
// over eight compile-time tables, eight input bytes per step. Incremental
// form (`update`) lets the socket transport checksum scattered buffers
// without concatenating them.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dust::wire {

/// Continue a CRC over `size` bytes. Seed with `crc32_init()`, finish with
/// `crc32_final()` — the split keeps the streaming use readable.
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t state, const void* data,
                                         std::size_t size) noexcept;

[[nodiscard]] inline std::uint32_t crc32_init() noexcept { return 0xFFFFFFFFu; }
[[nodiscard]] inline std::uint32_t crc32_final(std::uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of a contiguous buffer.
[[nodiscard]] inline std::uint32_t crc32(const void* data,
                                         std::size_t size) noexcept {
  return crc32_final(crc32_update(crc32_init(), data, size));
}

}  // namespace dust::wire
