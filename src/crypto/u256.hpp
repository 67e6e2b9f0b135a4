// Fixed-width 256-bit unsigned arithmetic for the P-256 implementation.
//
// Little-endian 64-bit limbs (w[0] is least significant). Wide products use
// a 512-bit struct. Two reductions exist: the generic limb-wise division
// behind mod and mul_mod (a handful of calls per signature on the scalar
// field), and the one Montgomery multiplier (crypto/montgomery.hpp) under
// pow_mod and all of the P-256 field arithmetic.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace bm::crypto {

struct U256 {
  std::array<std::uint64_t, 4> w{};

  static U256 from_u64(std::uint64_t v);
  /// Parse exactly 32 big-endian bytes.
  static U256 from_bytes_be(ByteView b);
  /// Parse a hex string of up to 64 digits (no 0x prefix).
  static U256 from_hex(std::string_view hex);

  Bytes to_bytes_be() const;  ///< Always 32 bytes.
  bool is_zero() const { return (w[0] | w[1] | w[2] | w[3]) == 0; }
  /// i in [0, 255].
  bool bit(int i) const { return (w[i / 64] >> (i % 64)) & 1; }
  /// Index of the highest set bit, or -1 if zero.
  int top_bit() const;

  friend bool operator==(const U256&, const U256&) = default;
};

struct U512 {
  std::array<std::uint64_t, 8> w{};
};

/// a < b, a == b, a > b  =>  -1, 0, 1.
int cmp(const U256& a, const U256& b);

/// r = a + b; returns the carry out (0 or 1).
std::uint64_t add(U256& r, const U256& a, const U256& b);

/// r = a - b; returns the borrow out (0 or 1).
std::uint64_t sub(U256& r, const U256& a, const U256& b);

/// Full 512-bit product.
U512 mul_wide(const U256& a, const U256& b);

/// Generic a mod m via limb-wise long division (Knuth TAOCP 4.3.1 Alg. D
/// with 64-bit digits); m must be non-zero.
U256 mod(const U512& a, const U256& m);

/// Reduce a 256-bit value mod m (single conditional subtract path).
U256 mod(const U256& a, const U256& m);

/// (a + b) mod m; inputs must already be < m.
U256 add_mod(const U256& a, const U256& b, const U256& m);

/// (a - b) mod m; inputs must already be < m.
U256 sub_mod(const U256& a, const U256& b, const U256& m);

/// (a * b) mod m via wide product + generic division.
U256 mul_mod(const U256& a, const U256& b, const U256& m);

/// a^e mod m for an odd modulus m >= 3 (throws std::invalid_argument
/// otherwise); a may be >= m. Montgomery multiplication under a fixed 4-bit
/// window: 252 squarings and 80 other multiplications whatever e is. For
/// the P-256 prime and group order the kernel runs on their compile-time
/// constants; any other modulus derives its constants per call.
U256 pow_mod(const U256& a, const U256& e, const U256& m);

/// a^(m-2) mod m — modular inverse when m is an odd prime and a != 0. With
/// m = n this is the scalar inverse of sign (k^-1) and verify (s^-1).
U256 inv_mod_prime(const U256& a, const U256& m);

}  // namespace bm::crypto
