#include "crc32_oracle.hpp"

#include <array>

namespace bm {

namespace {
std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}
const std::array<std::uint32_t, 256> kTable = make_table();
}  // namespace

std::uint32_t crc32_bytewise(std::uint32_t crc, ByteView data) {
  crc = ~crc;
  for (const std::uint8_t byte : data)
    crc = kTable[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  return ~crc;
}

}  // namespace bm
