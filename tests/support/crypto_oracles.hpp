// Slow, obviously-correct reference implementations that the crypto tests
// and micro_crypto compare the library's fast paths against. They live
// here rather than in bm_crypto because nothing in the library calls them.
#pragma once

#include "crypto/p256.hpp"
#include "crypto/u256.hpp"

namespace bm::crypto {

/// a mod m by bit-by-bit long division (~60x slower than crypto::mod);
/// m must be non-zero.
U256 mod_bitwise(const U512& a, const U256& m);

/// a^e mod m by left-to-right square-and-multiply over mul_mod, one
/// generic division per step (the pre-Montgomery pow_mod); m must be
/// non-zero.
U256 pow_mod_division(const U256& a, const U256& e, const U256& m);

/// k * P by left-to-right double-and-add over every bit of k.
JacobianPoint scalar_mult_naive(const U256& k, const AffinePoint& p);

}  // namespace bm::crypto
