// SHA-256 (FIPS 180-4), implemented from scratch.
//
// A streaming interface mirrors the paper's HashCalculator module (§3.2),
// which computes block/transaction/endorsement hashes over byte streams as
// packet payloads arrive.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"

namespace bm::crypto {

using Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();

  /// Absorb more message bytes; may be called any number of times.
  void update(ByteView data);

  /// Finish and return the digest. The object must not be reused afterwards
  /// without calling reset().
  Digest finish();

  /// Reinitialize to the empty-message state.
  void reset();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t total_len_ = 0;
  std::size_t buffer_len_ = 0;
};

/// One-shot convenience.
Digest sha256(ByteView data);

/// Digest as an owned byte buffer (handy for wire-format fields).
Bytes digest_bytes(const Digest& d);

/// View over a digest's storage.
ByteView digest_view(const Digest& d);

namespace detail {

/// A compression kernel: folds `nblocks` consecutive 64-byte blocks at
/// `data` into the eight-word chaining state.
using Sha256Kernel = void (*)(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t nblocks);

/// Plain C++ FIPS 180-4 kernel; runs on every CPU.
void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t nblocks);

/// The x86 SHA-extensions kernel, or nullptr when the CPU lacks SHA
/// (CPUID.(EAX=7,ECX=0):EBX[29]), SSSE3 or SSE4.1, or the build is not
/// x86-64.
Sha256Kernel sha256_accelerated_kernel();

/// The accelerated kernel when available, else the portable one. Sha256
/// asks once per process and uses the answer for every compression.
Sha256Kernel sha256_selected_kernel();

}  // namespace detail

}  // namespace bm::crypto
