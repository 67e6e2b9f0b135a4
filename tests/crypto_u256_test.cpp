#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "crypto/montgomery.hpp"
#include "crypto/p256.hpp"
#include "crypto/u256.hpp"
#include "crypto_oracles.hpp"

namespace bm::crypto {
namespace {

U256 random_u256(Rng& rng) {
  U256 r;
  for (auto& w : r.w) w = rng.next_u64();
  return r;
}

TEST(U256, FromHexAndBytes) {
  const U256 v = U256::from_hex("0123456789abcdef");
  EXPECT_EQ(v.w[0], 0x0123456789abcdefull);
  EXPECT_EQ(v.w[1], 0u);

  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const U256 x = random_u256(rng);
    EXPECT_EQ(U256::from_bytes_be(x.to_bytes_be()), x);
  }
}

TEST(U256, HexRoundTripViaBytes) {
  const U256 x = U256::from_hex(
      "ffffffff00000001000000000000000000000000fffffffffffffffffffffffe");
  EXPECT_EQ(x.to_bytes_be()[31], 0xfe);
  EXPECT_EQ(x.to_bytes_be()[0], 0xff);
}

TEST(U256, CompareAndBits) {
  const U256 a = U256::from_u64(5);
  const U256 b = U256::from_u64(7);
  EXPECT_EQ(cmp(a, b), -1);
  EXPECT_EQ(cmp(b, a), 1);
  EXPECT_EQ(cmp(a, a), 0);
  EXPECT_TRUE(a.bit(0));
  EXPECT_FALSE(a.bit(1));
  EXPECT_TRUE(a.bit(2));
  EXPECT_EQ(a.top_bit(), 2);
  EXPECT_EQ(U256{}.top_bit(), -1);
  EXPECT_TRUE(U256{}.is_zero());
}

TEST(U256, AddSubInverse) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const U256 a = random_u256(rng);
    const U256 b = random_u256(rng);
    U256 sum, back;
    const std::uint64_t carry = add(sum, a, b);
    const std::uint64_t borrow = sub(back, sum, b);
    EXPECT_EQ(back, a);
    // carry out of a+b equals borrow of (a+b)-b wrapping behaviour
    EXPECT_EQ(carry, borrow);
  }
}

TEST(U256, MulWideMatchesSmallProducts) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    const U512 p = mul_wide(U256::from_u64(a), U256::from_u64(b));
    const unsigned __int128 expected =
        static_cast<unsigned __int128>(a) * b;
    EXPECT_EQ(p.w[0], static_cast<std::uint64_t>(expected));
    EXPECT_EQ(p.w[1], static_cast<std::uint64_t>(expected >> 64));
    for (int j = 2; j < 8; ++j) EXPECT_EQ(p.w[j], 0u);
  }
}

TEST(U256, ModAgainstSmallOracle) {
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    const std::uint64_t m = rng.next_u64() | 1;
    const U512 wide = mul_wide(U256::from_u64(a), U256::from_u64(b));
    const unsigned __int128 prod = static_cast<unsigned __int128>(a) * b;
    EXPECT_EQ(mod(wide, U256::from_u64(m)),
              U256::from_u64(static_cast<std::uint64_t>(prod % m)));
  }
}

TEST(U256, ModularAlgebra) {
  // (a + b) - b == a, (a*b) mod m == (b*a) mod m, distributivity.
  Rng rng(5);
  const U256 m = p256_n();
  for (int i = 0; i < 100; ++i) {
    const U256 a = mod(random_u256(rng), m);
    const U256 b = mod(random_u256(rng), m);
    const U256 c = mod(random_u256(rng), m);
    EXPECT_EQ(sub_mod(add_mod(a, b, m), b, m), a);
    EXPECT_EQ(mul_mod(a, b, m), mul_mod(b, a, m));
    // a*(b+c) == a*b + a*c (mod m)
    EXPECT_EQ(mul_mod(a, add_mod(b, c, m), m),
              add_mod(mul_mod(a, b, m), mul_mod(a, c, m), m));
  }
}

TEST(U256, PowModIdentities) {
  const U256 m = p256_p();
  Rng rng(6);
  const U256 a = mod(random_u256(rng), m);
  EXPECT_EQ(pow_mod(a, U256::from_u64(0), m), U256::from_u64(1));
  EXPECT_EQ(pow_mod(a, U256::from_u64(1), m), a);
  EXPECT_EQ(pow_mod(a, U256::from_u64(2), m), mul_mod(a, a, m));
}

TEST(U256, PowModMatchesDivisionOracle) {
  // Montgomery fixed-window pow_mod against square-and-multiply over the
  // generic division, on the two curve moduli and random odd moduli of
  // every limb width, with edge and random bases and exponents.
  Rng rng(60);
  U256 all_ones;
  for (auto& w : all_ones.w) w = ~std::uint64_t{0};
  std::vector<U256> moduli = {p256_p(), p256_n()};
  for (int limbs = 1; limbs <= 4; ++limbs) {
    for (int i = 0; i < 3; ++i) {
      U256 m;
      for (int j = 0; j < limbs; ++j) m.w[j] = rng.next_u64();
      m.w[limbs - 1] |= std::uint64_t{1} << 63;
      m.w[0] |= 1;
      moduli.push_back(m);
    }
  }
  for (const U256& m : moduli) {
    U256 m_minus_1, m_minus_2;
    sub(m_minus_1, m, U256::from_u64(1));
    sub(m_minus_2, m, U256::from_u64(2));
    const std::vector<U256> bases = {U256{}, U256::from_u64(1), m_minus_1,
                                     all_ones, random_u256(rng),
                                     mod(random_u256(rng), m)};
    const std::vector<U256> exponents = {U256{}, U256::from_u64(1),
                                         m_minus_2, all_ones,
                                         random_u256(rng)};
    for (const U256& a : bases)
      for (const U256& e : exponents)
        EXPECT_EQ(pow_mod(a, e, m), pow_mod_division(a, e, m))
            << "m=" << m.w[0] << " a=" << a.w[0] << " e=" << e.w[0];
  }
}

TEST(U256, PowModRejectsEvenModulus) {
  const U256 a = U256::from_u64(5);
  const U256 e = U256::from_u64(3);
  U256 p_plus_1;
  add(p_plus_1, p256_p(), U256::from_u64(1));
  for (const U256& m : {U256{}, U256::from_u64(1), U256::from_u64(2),
                        U256::from_u64(4), p_plus_1}) {
    EXPECT_THROW(pow_mod(a, e, m), std::invalid_argument) << m.w[0];
    EXPECT_THROW(inv_mod_prime(a, m), std::invalid_argument) << m.w[0];
  }
  EXPECT_EQ(pow_mod(a, e, U256::from_u64(3)), U256::from_u64(2));
}

TEST(U256, InverseModPrime) {
  Rng rng(7);
  for (const U256& m : {p256_p(), p256_n()}) {
    for (int i = 0; i < 20; ++i) {
      U256 a = mod(random_u256(rng), m);
      if (a.is_zero()) a = U256::from_u64(1);
      const U256 inv = inv_mod_prime(a, m);
      EXPECT_EQ(mul_mod(a, inv, m), U256::from_u64(1));
    }
  }
}

U256 low_half(const U512& x) { return U256{{x.w[0], x.w[1], x.w[2], x.w[3]}}; }

/// R mod m for R = 2^256, by the generic division.
U256 r_mod(const U256& m) {
  U512 r;
  r.w[4] = 1;
  return mod(r, m);
}

/// The Montgomery reduction of a*b before its final subtraction, computed at
/// full width: t = (a*b + Q*m) / R with Q = a*b*(-m^-1) mod R, the unique
/// Q < R that clears the low half. The word-serial kernel reaches the same
/// t; it lies below 2m and may need a fifth limb (t >= R).
struct Unreduced {
  U256 low;
  bool fifth_limb = false;
};

Unreduced mont_unreduced(const U256& a, const U256& b, const U256& m) {
  // m^-1 mod R by Newton: x = x*(2 - m*x) doubles the correct low bits.
  U256 x = m;
  for (int i = 0; i < 8; ++i) {
    U256 two_minus;
    sub(two_minus, U256::from_u64(2), low_half(mul_wide(m, x)));
    x = low_half(mul_wide(x, two_minus));
  }
  U256 neg_inv;
  sub(neg_inv, U256{}, x);
  const U512 ab = mul_wide(a, b);
  const U512 qm = mul_wide(low_half(mul_wide(low_half(ab), neg_inv)), m);
  U512 sum;
  unsigned __int128 c = 0;
  for (int i = 0; i < 8; ++i) {
    c += static_cast<unsigned __int128>(ab.w[i]) + qm.w[i];
    sum.w[i] = static_cast<std::uint64_t>(c);
    c >>= 64;
  }
  EXPECT_TRUE(low_half(sum).is_zero());
  return {U256{{sum.w[4], sum.w[5], sum.w[6], sum.w[7]}}, c != 0};
}

/// Which arm of the kernel's final select an input takes.
enum class Arm { kKeep, kSubtract, kSubtractFifthLimb };

/// Checks mont_mul(a, b) for a < R, b < m against the Knuth-D mul_mod
/// (result * R == a * b mod m) and against the full-width reduction above,
/// and reports the arm of the final select.
Arm check_kernel(const U256& a, const U256& b, const detail::Modulus& M) {
  const U256 got = detail::mont_mul(a, b, M);
  EXPECT_LT(cmp(got, M.m), 0);
  EXPECT_EQ(mul_mod(got, r_mod(M.m), M.m), mul_mod(a, b, M.m))
      << "m=" << M.m.w[0] << " a=" << a.w[0] << " b=" << b.w[0];
  const Unreduced t = mont_unreduced(a, b, M.m);
  U256 expected = t.low;
  if (t.fifth_limb || cmp(t.low, M.m) >= 0) sub(expected, t.low, M.m);
  EXPECT_EQ(got, expected);
  if (t.fifth_limb) return Arm::kSubtractFifthLimb;
  return cmp(t.low, M.m) >= 0 ? Arm::kSubtract : Arm::kKeep;
}

TEST(Montgomery, ConstantsMatchGenericDivision) {
  for (const detail::Modulus& M : {detail::kModP, detail::kModN}) {
    EXPECT_EQ(M.m.w[0] * M.m_inv, ~std::uint64_t{0});
    const U256 r = r_mod(M.m);
    EXPECT_EQ(M.r2, mul_mod(r, r, M.m));
    const detail::Modulus runtime = detail::make_modulus(M.m);
    EXPECT_EQ(runtime.m_inv, M.m_inv);
    EXPECT_EQ(runtime.r2, M.r2);
  }
  EXPECT_EQ(detail::kModP.m, p256_p());
  EXPECT_EQ(detail::kModN.m, p256_n());
  EXPECT_EQ(detail::kModP.m_inv, 1u);
}

TEST(Montgomery, KernelMatchesMulModOnCurveAndRandomModuli) {
  // The fixed-modulus p and n instances, plus random odd moduli of every
  // limb width through make_modulus. Edge operands 0, 1, m-1 and R mod m
  // in every pairing, then random operands; for p and n also operands with
  // a*b = delta*R (mod m) and a*b > delta*R, whose unreduced value is
  // exactly m + delta: the subtract arm without a fifth limb, which random
  // operands almost never reach when m is this close to R.
  Rng rng(15);
  std::vector<detail::Modulus> moduli = {detail::kModP, detail::kModN};
  for (int limbs = 1; limbs <= 4; ++limbs) {
    for (int i = 0; i < 3; ++i) {
      U256 m;
      for (int j = 0; j < limbs; ++j) m.w[j] = rng.next_u64();
      m.w[limbs - 1] |= std::uint64_t{1} << 63;
      m.w[0] |= 1;
      moduli.push_back(detail::make_modulus(m));
    }
  }
  int total[3] = {};
  for (std::size_t k = 0; k < moduli.size(); ++k) {
    const detail::Modulus& M = moduli[k];
    int arms[3] = {};
    const auto run = [&](const U256& a, const U256& b) {
      ++arms[static_cast<int>(check_kernel(a, b, M))];
    };
    U256 m_minus_1;
    sub(m_minus_1, M.m, U256::from_u64(1));
    const std::vector<U256> edges = {U256{}, U256::from_u64(1), m_minus_1,
                                     r_mod(M.m)};
    for (const U256& a : edges)
      for (const U256& b : edges) run(a, b);
    for (int i = 0; i < 300; ++i)
      run(mod(random_u256(rng), M.m), mod(random_u256(rng), M.m));
    if (k < 2) {
      for (std::uint64_t delta = 1; delta <= 20; ++delta) {
        const U256 b = mod(random_u256(rng), M.m);
        const U256 a = mul_mod(mul_mod(U256::from_u64(delta), r_mod(M.m), M.m),
                               inv_mod_prime(b, M.m), M.m);
        const U512 ab = mul_wide(a, b);
        if (ab.w[4] <= delta && (ab.w[5] | ab.w[6] | ab.w[7]) == 0) continue;
        const Unreduced t = mont_unreduced(a, b, M.m);
        U256 m_plus_delta;
        add(m_plus_delta, M.m, U256::from_u64(delta));
        EXPECT_EQ(t.low, m_plus_delta);
        run(a, b);
      }
      // The P-256 moduli sit just below R: both subtract arms and the keep
      // arm must each have been driven.
      for (int arm = 0; arm < 3; ++arm)
        EXPECT_GT(arms[arm], 0) << "modulus " << k << " arm " << arm;
    }
    for (int arm = 0; arm < 3; ++arm) total[arm] += arms[arm];
  }
  for (int arm = 0; arm < 3; ++arm) EXPECT_GT(total[arm], 20) << arm;
}

TEST(Montgomery, KernelCarriesOutOfTheFifthLimb) {
  // Adding q*m carries out of the fifth limb only when that limb is all
  // ones, which needs a first operand near R: m just below R, a = R - 1 and
  // limbs of b equal to 2^64 - 1 get there. With the P-256 moduli and
  // operands below m the limb stays below 2^64 - 1.
  Rng rng(19);
  U256 all_ones;
  for (auto& w : all_ones.w) w = ~std::uint64_t{0};
  for (std::uint64_t k = 3; k < 40; k += 2) {
    U256 m;
    sub(m, U256{}, U256::from_u64(k));
    const detail::Modulus M = detail::make_modulus(m);
    U256 m_minus_1;
    sub(m_minus_1, m, U256::from_u64(1));
    check_kernel(all_ones, m_minus_1, M);
    check_kernel(all_ones, mod(random_u256(rng), m), M);
  }
}

TEST(Montgomery, KernelTakesAnyFirstOperand) {
  // to_mont multiplies by R^2 mod m, so it also reduces inputs >= m.
  Rng rng(16);
  U256 all_ones;
  for (auto& w : all_ones.w) w = ~std::uint64_t{0};
  for (const detail::Modulus& M : {detail::kModP, detail::kModN}) {
    for (const U256& a : {all_ones, M.m, random_u256(rng), random_u256(rng)})
      check_kernel(a, M.r2, M);
  }
}

TEST(Montgomery, RoundTrip) {
  Rng rng(17);
  U256 all_ones;
  for (auto& w : all_ones.w) w = ~std::uint64_t{0};
  for (const detail::Modulus& M : {detail::kModP, detail::kModN}) {
    U256 m_minus_1;
    sub(m_minus_1, M.m, U256::from_u64(1));
    std::vector<U256> values = {U256{}, U256::from_u64(1), m_minus_1};
    for (int i = 0; i < 50; ++i) values.push_back(mod(random_u256(rng), M.m));
    for (const U256& a : values) {
      const U256 am = detail::to_mont(a, M);
      EXPECT_EQ(am, mul_mod(a, r_mod(M.m), M.m));
      EXPECT_EQ(detail::from_mont(am, M), a);
    }
    EXPECT_EQ(detail::to_mont(all_ones, M), mul_mod(all_ones, r_mod(M.m), M.m));
  }
}

TEST(Montgomery, InversesMatchDivisionOracle) {
  // fp_inv's addition chain on the p instance and the fixed-window scalar
  // inverse on the n (and p) instances, against square-and-multiply over
  // the generic division.
  Rng rng(18);
  for (const U256& m : {p256_p(), p256_n()}) {
    U256 m_minus_1, m_minus_2;
    sub(m_minus_1, m, U256::from_u64(1));
    sub(m_minus_2, m, U256::from_u64(2));
    std::vector<U256> values = {U256{}, U256::from_u64(1), m_minus_1};
    for (int i = 0; i < 8; ++i) values.push_back(mod(random_u256(rng), m));
    for (const U256& a : values) {
      const U256 expected = pow_mod_division(a, m_minus_2, m);
      EXPECT_EQ(inv_mod_prime(a, m), expected);
      if (m == p256_p()) {
        EXPECT_EQ(fp_inv(a), expected);
      }
    }
  }
}

TEST(P256, FieldMulEdgeCases) {
  const U256& p = p256_p();
  const U256 one = U256::from_u64(1);
  U256 p_minus_1;
  sub(p_minus_1, p, one);
  EXPECT_EQ(fp_mul(U256{}, U256{}), U256{});
  EXPECT_EQ(fp_mul(U256{}, p_minus_1), U256{});
  EXPECT_EQ(fp_mul(p_minus_1, p_minus_1), mul_mod(p_minus_1, p_minus_1, p));
  EXPECT_EQ(fp_mul(p_minus_1, p_minus_1), one);
  EXPECT_EQ(fp_mul(p_minus_1, one), p_minus_1);
  EXPECT_EQ(fp_mul(one, p_minus_1), p_minus_1);
  EXPECT_EQ(fp_sqr(p_minus_1), one);
}

TEST(P256, FieldOpsConsistency) {
  Rng rng(9);
  const U256& p = p256_p();
  for (int i = 0; i < 100; ++i) {
    const U256 a = mod(random_u256(rng), p);
    const U256 b = mod(random_u256(rng), p);
    EXPECT_EQ(fp_mul(a, b), mul_mod(a, b, p));
    EXPECT_EQ(fp_add(a, b), add_mod(a, b, p));
    EXPECT_EQ(fp_sub(a, b), sub_mod(a, b, p));
    EXPECT_EQ(fp_sqr(a), fp_mul(a, a));
    if (!a.is_zero()) {
      EXPECT_EQ(fp_mul(a, fp_inv(a)), U256::from_u64(1));
    }
  }
}

TEST(U256, LimbDivisionMatchesBitwiseOracle) {
  // The Knuth-D remainder path against the retained bit-by-bit oracle, over
  // random dividends and moduli of every limb width.
  Rng rng(77);
  for (int i = 0; i < 400; ++i) {
    U512 a;
    for (auto& w : a.w) w = rng.next_u64();
    // Vary modulus width: 1..4 significant limbs, occasionally sparse.
    U256 m;
    const int limbs = 1 + static_cast<int>(rng.next_u64() % 4);
    for (int j = 0; j < limbs; ++j) m.w[j] = rng.next_u64();
    if (m.w[limbs - 1] == 0) m.w[limbs - 1] = 1;
    if (i % 7 == 0) m.w[0] = 0;  // force a zero low limb
    if (m.is_zero()) m.w[0] = 1;
    EXPECT_EQ(mod(a, m), mod_bitwise(a, m)) << "iteration " << i;
  }
}

TEST(U256, LimbDivisionEdgeCases) {
  U256 one = U256::from_u64(1);
  U512 zero512;
  EXPECT_EQ(mod(zero512, one), U256{});
  EXPECT_EQ(mod(zero512, p256_p()), U256{});

  U512 max512;
  for (auto& w : max512.w) w = ~std::uint64_t{0};
  U256 max256;
  for (auto& w : max256.w) w = ~std::uint64_t{0};
  // Modulus 1 -> 0; modulus 2^64-1; modulus 2^256-1; powers of two.
  EXPECT_EQ(mod(max512, one), mod_bitwise(max512, one));
  EXPECT_EQ(mod(max512, U256::from_u64(~std::uint64_t{0})),
            mod_bitwise(max512, U256::from_u64(~std::uint64_t{0})));
  EXPECT_EQ(mod(max512, max256), mod_bitwise(max512, max256));
  for (int shift : {1, 63, 64, 65, 127, 128, 192, 255}) {
    U256 pow2;
    pow2.w[shift / 64] = std::uint64_t{1} << (shift % 64);
    EXPECT_EQ(mod(max512, pow2), mod_bitwise(max512, pow2)) << shift;
  }
  // Dividend smaller than modulus passes through.
  U512 small;
  small.w[0] = 42;
  EXPECT_EQ(mod(small, p256_p()), U256::from_u64(42));
  // Dividend exactly the modulus (and modulus +- 1) reduce correctly.
  const U256& p = p256_p();
  U512 pw;
  for (int i = 0; i < 4; ++i) pw.w[i] = p.w[i];
  EXPECT_EQ(mod(pw, p), U256{});
  U256 p_plus_1;
  add(p_plus_1, p, one);
  for (int i = 0; i < 4; ++i) pw.w[i] = p_plus_1.w[i];
  EXPECT_EQ(mod(pw, p), U256::from_u64(1));
}

TEST(U256, LimbDivisionStressesQhatCorrection) {
  // Dividends shaped to trigger the qhat-too-large correction and add-back
  // branches: top limbs equal to the normalized divisor's top limb.
  Rng rng(78);
  for (int i = 0; i < 200; ++i) {
    U256 m;
    m.w[3] = rng.next_u64() | (std::uint64_t{1} << 63);  // already normalized
    m.w[0] = rng.next_u64();
    U512 a;
    a.w[7] = m.w[3];  // un[j+k] == vn[k-1] forces the qhat cap
    a.w[6] = rng.next_u64();
    a.w[5] = ~std::uint64_t{0};
    a.w[0] = rng.next_u64();
    EXPECT_EQ(mod(a, m), mod_bitwise(a, m)) << "iteration " << i;
  }
}

}  // namespace
}  // namespace bm::crypto
