// Montgomery multiplication modulo a 256-bit odd modulus, inlined at every
// call site.
//
// Private to the crypto library: u256.cpp (pow_mod) and p256.cpp (the
// field and the point formulas) include it, and so do the tests and
// micro_crypto, through crypto::detail. No public header does.
//
// With R = 2^256, the Montgomery form of a is a*R mod m, and mont_mul(a, b)
// returns a*b*R^-1 mod m, so the product of two Montgomery-form values is
// again in Montgomery form. The kernel is 4x64-bit CIOS (Koc et al. 1996),
// fully unrolled, with no data-dependent branch; the modular add and sub
// beside it are branch-free too. When the Modulus argument is one of the
// constexpr instances below, the compiler folds its limbs into the unrolled
// code: for the P-256 prime m' = 1 and the zero limb drop out.
#pragma once

#include <cstdint>
#include <type_traits>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "crypto/u256.hpp"

namespace bm::crypto::detail {

/// An odd modulus m >= 3 with its Montgomery constants for R = 2^256.
struct Modulus {
  U256 m;
  std::uint64_t m_inv;  ///< -m^-1 mod 2^64
  U256 r2;              ///< R^2 mod m
};

/// a + b + carry_in for a carry_in of 0 or 1; carry_out gets 0 or 1. On
/// x86-64 the intrinsic keeps the carry in the flags across a chain (one
/// adc per limb), which GCC does not manage from 128-bit arithmetic.
[[gnu::always_inline]] constexpr std::uint64_t addc(std::uint64_t a,
                                                    std::uint64_t b,
                                                    std::uint64_t carry_in,
                                                    std::uint64_t& carry_out) {
#if defined(__x86_64__)
  if (!std::is_constant_evaluated()) {
    unsigned long long s;
    carry_out = _addcarry_u64(static_cast<unsigned char>(carry_in), a, b, &s);
    return s;
  }
#endif
  const unsigned __int128 s = static_cast<unsigned __int128>(a) + b + carry_in;
  carry_out = static_cast<std::uint64_t>(s >> 64);
  return static_cast<std::uint64_t>(s);
}

/// a - b - borrow_in for a borrow_in of 0 or 1; borrow_out gets 0 or 1.
[[gnu::always_inline]] constexpr std::uint64_t subb(std::uint64_t a,
                                                    std::uint64_t b,
                                                    std::uint64_t borrow_in,
                                                    std::uint64_t& borrow_out) {
#if defined(__x86_64__)
  if (!std::is_constant_evaluated()) {
    unsigned long long d;
    borrow_out =
        _subborrow_u64(static_cast<unsigned char>(borrow_in), a, b, &d);
    return d;
  }
#endif
  const unsigned __int128 d =
      static_cast<unsigned __int128>(a) - b - borrow_in;
  borrow_out = static_cast<std::uint64_t>(d >> 64) & 1;
  return static_cast<std::uint64_t>(d);
}

/// m where mask is all ones, 0 where it is zero, added to d; the carry out
/// is dropped. A carry chain rather than a per-limb select, which keeps the
/// vectorizer from routing the limbs through memory.
[[gnu::always_inline]] constexpr U256 add_masked(const U256& d,
                                                 std::uint64_t mask,
                                                 const Modulus& M) {
  std::uint64_t carry = 0;
  U256 r;
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) r.w[i] = addc(d.w[i], M.m.w[i] & mask, carry, carry);
  return r;
}

/// The 257-bit value hi*2^256 + r reduced once: r - m when it is >= m, else
/// r. Exact for any value below 2m. m is subtracted unconditionally and
/// added back under a mask when the subtraction borrows out of hi.
[[gnu::always_inline]] constexpr U256 reduce_once(const U256& r,
                                                  std::uint64_t hi,
                                                  const Modulus& M) {
  std::uint64_t borrow = 0;
  U256 d;
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) d.w[i] = subb(r.w[i], M.m.w[i], borrow, borrow);
  subb(hi, 0, borrow, borrow);
  return add_masked(d, 0 - borrow, M);
}

/// (a + b) mod m for a, b < m, without a branch.
[[gnu::always_inline]] constexpr U256 mod_add(const U256& a, const U256& b,
                                              const Modulus& M) {
  std::uint64_t carry = 0;
  U256 s;
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) s.w[i] = addc(a.w[i], b.w[i], carry, carry);
  return reduce_once(s, carry, M);
}

/// (a - b) mod m for a, b < m, without a branch: m is added back under a
/// mask when the subtraction borrows.
[[gnu::always_inline]] constexpr U256 mod_sub(const U256& a, const U256& b,
                                              const Modulus& M) {
  std::uint64_t borrow = 0;
  U256 d;
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) d.w[i] = subb(a.w[i], b.w[i], borrow, borrow);
  return add_masked(d, 0 - borrow, M);
}

/// The Montgomery constants of m (odd, >= 3). -m^-1 mod 2^64 comes from
/// Newton's iteration: an odd x is its own inverse mod 8, and each step
/// x *= 2 - m0*x doubles the correct low bits (3 -> 6 -> ... -> 96).
/// R^2 mod m comes from 512 modular doublings of 1.
constexpr Modulus make_modulus(const U256& m) {
  std::uint64_t x = m.w[0];
  for (int i = 0; i < 5; ++i) x *= 2 - m.w[0] * x;
  Modulus M{m, 0 - x, {{1, 0, 0, 0}}};
  for (int i = 0; i < 512; ++i) M.r2 = mod_add(M.r2, M.r2, M);
  return M;
}

/// The NIST P-256 prime p = 2^256 - 2^224 + 2^192 + 2^96 - 1.
inline constexpr Modulus kModP = make_modulus(U256{{
    0xffffffffffffffff, 0x00000000ffffffff, 0x0000000000000000,
    0xffffffff00000001}});

/// The P-256 group order n.
inline constexpr Modulus kModN = make_modulus(U256{{
    0xf3b9cac2fc632551, 0xbce6faada7179e84, 0xffffffffffffffff,
    0xffffffff00000000}});

/// a*b*R^-1 mod m, fully reduced, for b < m and any 256-bit a (or the other
/// way round). The running value stays below 2R, so it needs a fifth limb
/// plus one overflow bit; the final subtraction of m is undone under a mask
/// when it borrows, never by a branch.
[[gnu::always_inline]] constexpr U256 mont_mul(const U256& a, const U256& b,
                                               const Modulus& M) {
  using u128 = unsigned __int128;
  const auto lo = [](u128 x) { return static_cast<std::uint64_t>(x); };
  const auto hi = [](u128 x) { return static_cast<std::uint64_t>(x >> 64); };
  std::uint64_t t[5] = {};
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    // t += a * b[i]: low product halves, then high halves one limb up.
    u128 p[4];
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) p[j] = static_cast<u128>(a.w[j]) * b.w[i];
    std::uint64_t c = 0, top = 0;
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) t[j] = addc(t[j], lo(p[j]), c, c);
    t[4] = addc(t[4], 0, c, top);
    c = 0;
#pragma GCC unroll 4
    for (int j = 1; j < 4; ++j) t[j] = addc(t[j], hi(p[j - 1]), c, c);
    t[4] = addc(t[4], hi(p[3]), c, c);
    top += c;

    // t = (t + q*m) / 2^64, with q chosen so the low limb vanishes.
    const std::uint64_t q = t[0] * M.m_inv;
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) p[j] = static_cast<u128>(q) * M.m.w[j];
    c = 0;
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) t[j] = addc(t[j], lo(p[j]), c, c);
    t[4] = addc(t[4], 0, c, c);
    top += c;
    c = 0;
#pragma GCC unroll 4
    for (int j = 0; j < 3; ++j) t[j] = addc(t[j + 1], hi(p[j]), c, c);
    t[3] = addc(t[4], hi(p[3]), c, c);
    t[4] = top + c;
  }
  return reduce_once(U256{{t[0], t[1], t[2], t[3]}}, t[4], M);
}

/// a*R mod m, the Montgomery form of a; any 256-bit a.
constexpr U256 to_mont(const U256& a, const Modulus& M) {
  return mont_mul(a, M.r2, M);
}

/// a*R^-1 mod m: standard form of a Montgomery-form a.
constexpr U256 from_mont(const U256& a, const Modulus& M) {
  return mont_mul(a, U256{{1, 0, 0, 0}}, M);
}

}  // namespace bm::crypto::detail
