// Byte-at-a-time CRC-32 (the pre-slicing loop of common/crc32.cpp), kept as
// the reference the slicing-by-8 implementation is tested against.
#pragma once

#include "common/bytes.hpp"

namespace bm {

/// Same contract as crc32_update: pass the previous result to continue.
std::uint32_t crc32_bytewise(std::uint32_t crc, ByteView data);

}  // namespace bm
