#include "crypto_oracles.hpp"

#include <cassert>

namespace bm::crypto {

U256 mod_bitwise(const U512& a, const U256& m) {
  assert(!m.is_zero());
  const auto bit = [&](int i) { return (a.w[i / 64] >> (i % 64)) & 1; };
  int top = 511;
  while (top >= 0 && bit(top) == 0) --top;
  U256 r;
  for (int i = top; i >= 0; --i) {
    // r = 2r + bit; the transient value fits in 257 bits tracked by `hi`.
    const bool hi = (r.w[3] >> 63) & 1;
    for (int limb = 3; limb > 0; --limb)
      r.w[limb] = (r.w[limb] << 1) | (r.w[limb - 1] >> 63);
    r.w[0] = (r.w[0] << 1) | bit(i);
    if (hi || cmp(r, m) >= 0) sub(r, r, m);
  }
  return r;
}

U256 pow_mod_division(const U256& a, const U256& e, const U256& m) {
  U256 result = mod(U256::from_u64(1), m);
  for (int i = e.top_bit(); i >= 0; --i) {
    result = mul_mod(result, result, m);
    if (e.bit(i)) result = mul_mod(result, a, m);
  }
  return result;
}

JacobianPoint scalar_mult_naive(const U256& k, const AffinePoint& p) {
  JacobianPoint acc{};
  const JacobianPoint base = to_jacobian(p);
  for (int i = k.top_bit(); i >= 0; --i) {
    acc = point_double(acc);
    if (k.bit(i)) acc = point_add(acc, base);
  }
  return acc;
}

}  // namespace bm::crypto
