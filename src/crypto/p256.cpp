#include "crypto/p256.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdlib>

namespace bm::crypto {

namespace {

const U256 kP = U256::from_hex(
    "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
const U256 kN = U256::from_hex(
    "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551");
const U256 kB = U256::from_hex(
    "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b");
const AffinePoint kG = {
    U256::from_hex(
        "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"),
    U256::from_hex(
        "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"),
    false};

}  // namespace

const U256& p256_p() { return kP; }
const U256& p256_n() { return kN; }
const U256& p256_b() { return kB; }
const AffinePoint& p256_generator() { return kG; }

U256 fp_add(const U256& a, const U256& b) { return add_mod(a, b, kP); }
U256 fp_sub(const U256& a, const U256& b) { return sub_mod(a, b, kP); }

U256 fp_reduce(const U512& a) {
  // Split the 512-bit input into sixteen 32-bit words c[0..15] (little
  // endian) and combine per Hankerson Alg. 2.29:
  //   r = s1 + 2*s2 + 2*s3 + s4 + s5 - s6 - s7 - s8 - s9 (mod p).
  std::uint32_t c[16];
  for (int i = 0; i < 8; ++i) {
    c[2 * i] = static_cast<std::uint32_t>(a.w[i]);
    c[2 * i + 1] = static_cast<std::uint32_t>(a.w[i] >> 32);
  }

  // Per-lane signed accumulation (each lane sums at most 9 32-bit words, so
  // an int64 cannot overflow).
  std::int64_t acc[8] = {};
  auto lane = [&](int j) -> std::int64_t& { return acc[j]; };

  // s1
  for (int j = 0; j < 8; ++j) lane(j) += c[j];
  // 2*s2 = 2*(c15,c14,c13,c12,c11,0,0,0)
  for (int j = 3; j < 8; ++j) lane(j) += 2 * static_cast<std::int64_t>(c[j + 8]);
  // 2*s3 = 2*(0,c15,c14,c13,c12,0,0,0)
  for (int j = 3; j < 7; ++j) lane(j) += 2 * static_cast<std::int64_t>(c[j + 9]);
  // s4 = (c15,c14,0,0,0,c10,c9,c8)
  lane(0) += c[8]; lane(1) += c[9]; lane(2) += c[10];
  lane(6) += c[14]; lane(7) += c[15];
  // s5 = (c8,c13,c15,c14,c13,c11,c10,c9)
  lane(0) += c[9]; lane(1) += c[10]; lane(2) += c[11]; lane(3) += c[13];
  lane(4) += c[14]; lane(5) += c[15]; lane(6) += c[13]; lane(7) += c[8];
  // s6 = (c10,c8,0,0,0,c13,c12,c11)
  lane(0) -= c[11]; lane(1) -= c[12]; lane(2) -= c[13];
  lane(6) -= c[8]; lane(7) -= c[10];
  // s7 = (c11,c9,0,0,c15,c14,c13,c12)
  lane(0) -= c[12]; lane(1) -= c[13]; lane(2) -= c[14]; lane(3) -= c[15];
  lane(6) -= c[9]; lane(7) -= c[11];
  // s8 = (c12,0,c10,c9,c8,c15,c14,c13)
  lane(0) -= c[13]; lane(1) -= c[14]; lane(2) -= c[15]; lane(3) -= c[8];
  lane(4) -= c[9]; lane(5) -= c[10]; lane(7) -= c[12];
  // s9 = (c13,0,c11,c10,c9,0,c15,c14)
  lane(0) -= c[14]; lane(1) -= c[15]; lane(3) -= c[9]; lane(4) -= c[10];
  lane(5) -= c[11]; lane(7) -= c[13];

  // Carry-propagate the signed lanes into a 256-bit value plus a signed
  // overflow word.
  U256 r;
  std::int64_t carry = 0;
  for (int j = 0; j < 8; ++j) {
    const std::int64_t t = acc[j] + carry;
    const auto low = static_cast<std::uint32_t>(t & 0xffffffff);
    carry = (t - low) >> 32;
    if (j % 2 == 0) {
      r.w[j / 2] = low;
    } else {
      r.w[j / 2] |= static_cast<std::uint64_t>(low) << 32;
    }
  }

  // Fold the overflow word: total value = carry * 2^256 + r. |carry| is tiny
  // (< 8), so a short loop of +/- p suffices.
  while (carry < 0) {
    carry += static_cast<std::int64_t>(add(r, r, kP));
  }
  while (carry > 0) {
    carry -= static_cast<std::int64_t>(sub(r, r, kP));
  }
  while (cmp(r, kP) >= 0) sub(r, r, kP);
  return r;
}

U256 fp_mul(const U256& a, const U256& b) {
  return fp_reduce(mul_wide(a, b));
}

U256 fp_sqr(const U256& a) { return fp_mul(a, a); }

U256 fp_inv(const U256& a) {
  // Fermat, a^(p-2), by a fixed addition chain over the fast reduction:
  // 255 squarings and 12 multiplications. From the top, p - 2 is 32 ones,
  // 31 zeros, a one, 96 zeros, 94 ones, a zero and a one.
  const auto sqr_n = [](U256 x, int n) {
    for (int i = 0; i < n; ++i) x = fp_sqr(x);
    return x;
  };
  // xk = a^(2^k - 1): k consecutive one bits.
  const U256 x2 = fp_mul(fp_sqr(a), a);
  const U256 x3 = fp_mul(fp_sqr(x2), a);
  const U256 x6 = fp_mul(sqr_n(x3, 3), x3);
  const U256 x12 = fp_mul(sqr_n(x6, 6), x6);
  const U256 x15 = fp_mul(sqr_n(x12, 3), x3);
  const U256 x30 = fp_mul(sqr_n(x15, 15), x15);
  const U256 x32 = fp_mul(sqr_n(x30, 2), x2);
  U256 t = fp_mul(sqr_n(x32, 32), a);  // 32 ones, 31 zeros, 1
  t = fp_mul(sqr_n(t, 128), x32);      // then 96 zeros, 32 ones
  t = fp_mul(sqr_n(t, 32), x32);       // then 32 ones
  t = fp_mul(sqr_n(t, 30), x30);       // then 30 ones
  return fp_mul(sqr_n(t, 2), a);       // then 0, 1
}

JacobianPoint to_jacobian(const AffinePoint& p) {
  if (p.infinity) return JacobianPoint{};
  return JacobianPoint{p.x, p.y, U256::from_u64(1)};
}

AffinePoint to_affine(const JacobianPoint& p) {
  if (p.is_infinity()) return AffinePoint{{}, {}, true};
  const U256 zinv = fp_inv(p.z);
  const U256 zinv2 = fp_sqr(zinv);
  const U256 zinv3 = fp_mul(zinv2, zinv);
  return AffinePoint{fp_mul(p.x, zinv2), fp_mul(p.y, zinv3), false};
}

bool jacobian_x_equals_mod_n(const JacobianPoint& p, const U256& r) {
  if (p.is_infinity()) return false;
  // The affine x = X / Z^2 lies in [0, p) and p < 2n, so x mod n == r
  // exactly when x == r or x == r + n (the latter only if r + n < p).
  const U256 z2 = fp_sqr(p.z);
  if (fp_mul(r, z2) == p.x) return true;
  U256 rn;
  if (add(rn, r, kN) != 0 || cmp(rn, kP) >= 0) return false;
  return fp_mul(rn, z2) == p.x;
}

JacobianPoint point_double(const JacobianPoint& p) {
  if (p.is_infinity() || p.y.is_zero()) return JacobianPoint{};
  // dbl-2001-b formulas for a = -3.
  const U256 delta = fp_sqr(p.z);
  const U256 gamma = fp_sqr(p.y);
  const U256 beta = fp_mul(p.x, gamma);
  const U256 alpha =
      fp_mul(fp_add(fp_add(fp_sub(p.x, delta), fp_sub(p.x, delta)),
                    fp_sub(p.x, delta)),
             fp_add(p.x, delta));
  const U256 beta8 = fp_add(fp_add(fp_add(beta, beta), fp_add(beta, beta)),
                            fp_add(fp_add(beta, beta), fp_add(beta, beta)));
  JacobianPoint r;
  r.x = fp_sub(fp_sqr(alpha), beta8);
  const U256 ypz = fp_add(p.y, p.z);
  r.z = fp_sub(fp_sub(fp_sqr(ypz), gamma), delta);
  const U256 beta4 = fp_add(fp_add(beta, beta), fp_add(beta, beta));
  const U256 gamma2 = fp_sqr(gamma);
  const U256 gamma2_8 =
      fp_add(fp_add(fp_add(gamma2, gamma2), fp_add(gamma2, gamma2)),
             fp_add(fp_add(gamma2, gamma2), fp_add(gamma2, gamma2)));
  r.y = fp_sub(fp_mul(alpha, fp_sub(beta4, r.x)), gamma2_8);
  return r;
}

JacobianPoint point_add(const JacobianPoint& p, const JacobianPoint& q) {
  if (p.is_infinity()) return q;
  if (q.is_infinity()) return p;
  const U256 z1z1 = fp_sqr(p.z);
  const U256 z2z2 = fp_sqr(q.z);
  const U256 u1 = fp_mul(p.x, z2z2);
  const U256 u2 = fp_mul(q.x, z1z1);
  const U256 s1 = fp_mul(p.y, fp_mul(z2z2, q.z));
  const U256 s2 = fp_mul(q.y, fp_mul(z1z1, p.z));
  if (u1 == u2) {
    if (s1 == s2) return point_double(p);
    return JacobianPoint{};  // p + (-p)
  }
  const U256 h = fp_sub(u2, u1);
  const U256 r = fp_sub(s2, s1);
  const U256 h2 = fp_sqr(h);
  const U256 h3 = fp_mul(h2, h);
  const U256 u1h2 = fp_mul(u1, h2);
  JacobianPoint out;
  out.x = fp_sub(fp_sub(fp_sqr(r), h3), fp_add(u1h2, u1h2));
  out.y = fp_sub(fp_mul(r, fp_sub(u1h2, out.x)), fp_mul(s1, h3));
  out.z = fp_mul(fp_mul(p.z, q.z), h);
  return out;
}

JacobianPoint point_add_affine(const JacobianPoint& p, const AffinePoint& q) {
  if (q.infinity) return p;
  if (p.is_infinity()) return to_jacobian(q);
  // Mixed addition (madd-2007-bl shape, Z2 = 1).
  const U256 z1z1 = fp_sqr(p.z);
  const U256 u2 = fp_mul(q.x, z1z1);
  const U256 s2 = fp_mul(q.y, fp_mul(z1z1, p.z));
  if (p.x == u2) {
    if (p.y == s2) return point_double(p);
    return JacobianPoint{};  // p + (-p)
  }
  const U256 h = fp_sub(u2, p.x);
  const U256 r = fp_sub(s2, p.y);
  const U256 h2 = fp_sqr(h);
  const U256 h3 = fp_mul(h2, h);
  const U256 v = fp_mul(p.x, h2);
  JacobianPoint out;
  out.x = fp_sub(fp_sub(fp_sqr(r), h3), fp_add(v, v));
  out.y = fp_sub(fp_mul(r, fp_sub(v, out.x)), fp_mul(p.y, h3));
  out.z = fp_mul(p.z, h);
  return out;
}

std::vector<AffinePoint> batch_to_affine(const std::vector<JacobianPoint>& pts) {
  // Montgomery's trick: one inversion plus 3(n-1) multiplications inverts
  // every Z at once; infinities pass through with Z treated as 1.
  std::vector<AffinePoint> out(pts.size());
  std::vector<U256> prefix(pts.size());
  U256 acc = U256::from_u64(1);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    prefix[i] = acc;
    if (!pts[i].is_infinity()) acc = fp_mul(acc, pts[i].z);
  }
  U256 inv = fp_inv(acc);
  for (std::size_t i = pts.size(); i-- > 0;) {
    if (pts[i].is_infinity()) {
      out[i] = AffinePoint{{}, {}, true};
      continue;
    }
    const U256 zinv = fp_mul(inv, prefix[i]);
    inv = fp_mul(inv, pts[i].z);
    const U256 zinv2 = fp_sqr(zinv);
    out[i] = AffinePoint{fp_mul(pts[i].x, zinv2),
                         fp_mul(pts[i].y, fp_mul(zinv2, zinv)), false};
  }
  return out;
}

namespace {

JacobianPoint jac_negate(const JacobianPoint& p) {
  if (p.is_infinity() || p.y.is_zero()) return p;
  return JacobianPoint{p.x, sub_mod(U256{}, p.y, kP), p.z};
}

AffinePoint affine_negate(const AffinePoint& p) {
  if (p.infinity || p.y.is_zero()) return p;
  return AffinePoint{p.x, sub_mod(U256{}, p.y, kP), false};
}

/// Width-w NAF digits of k, least significant first. Digits are zero or odd
/// in [-(2^(w-1) - 1), 2^(w-1) - 1]; at most 257 are produced.
int wnaf_digits(const U256& k, int w, std::int8_t* digits) {
  U256 v = k;
  const std::uint64_t mask = (1u << w) - 1;
  const std::int64_t half = std::int64_t{1} << (w - 1);
  int len = 0;
  while (!v.is_zero()) {
    std::int8_t d = 0;
    if (v.w[0] & 1) {
      std::int64_t low = static_cast<std::int64_t>(v.w[0] & mask);
      if (low >= half) low -= 2 * half;
      d = static_cast<std::int8_t>(low);
      // v -= d (d odd, |d| < 2^(w-1); callers pass k < n so no overflow).
      U256 delta = U256::from_u64(static_cast<std::uint64_t>(low < 0 ? -low : low));
      if (low > 0) sub(v, v, delta);
      else add(v, v, delta);
    }
    digits[len++] = d;
    // v >>= 1.
    for (int i = 0; i < 3; ++i) v.w[i] = (v.w[i] >> 1) | (v.w[i + 1] << 63);
    v.w[3] >>= 1;
  }
  return len;
}

constexpr int kWnafWidth = 5;            ///< arbitrary-point tables: 8 entries
constexpr int kWnafWidthBase = 7;        ///< generator table: 32 entries
constexpr int kCombTeeth = 8;            ///< comb rows
constexpr int kCombSpacing = 32;         ///< comb columns (256 / kCombTeeth)

/// Odd multiples {P, 3P, 5P, ..., (2^(w-1) - 1)P} in Jacobian coordinates.
std::vector<JacobianPoint> odd_multiples(const AffinePoint& p, int w) {
  const int count = 1 << (w - 2);
  std::vector<JacobianPoint> tbl(static_cast<std::size_t>(count));
  tbl[0] = to_jacobian(p);
  const JacobianPoint p2 = point_double(tbl[0]);
  for (int i = 1; i < count; ++i) tbl[i] = point_add(tbl[i - 1], p2);
  return tbl;
}

/// Precomputed affine odd multiples of G for the joint-wNAF verify path.
const std::vector<AffinePoint>& base_wnaf_table() {
  static const std::vector<AffinePoint> tbl =
      batch_to_affine(odd_multiples(kG, kWnafWidthBase));
  return tbl;
}

/// Lim–Lee comb entries for P: entry d (1..255) is sum_{t in bits(d)}
/// 2^(32t) * P, stored affine. 255 entries, ~16 KiB.
std::vector<AffinePoint> build_comb_entries(const AffinePoint& p) {
  std::array<JacobianPoint, kCombTeeth> spine;
  spine[0] = to_jacobian(p);
  for (int t = 1; t < kCombTeeth; ++t) {
    spine[t] = spine[t - 1];
    for (int i = 0; i < kCombSpacing; ++i) spine[t] = point_double(spine[t]);
  }
  std::vector<JacobianPoint> entries(1u << kCombTeeth);  // entry 0 unused
  for (unsigned d = 1; d < entries.size(); ++d) {
    const unsigned t = static_cast<unsigned>(__builtin_ctz(d));
    entries[d] =
        d == (1u << t) ? spine[t] : point_add(entries[d & (d - 1)], spine[t]);
  }
  return batch_to_affine(entries);
}

const std::vector<AffinePoint>& base_comb_table() {
  static const std::vector<AffinePoint> tbl = build_comb_entries(kG);
  return tbl;
}

/// Column digit of the comb decomposition: bit t*32+col of k selects tooth t.
unsigned comb_digit(const U256& k, int col) {
  unsigned d = 0;
  for (int t = 0; t < kCombTeeth; ++t)
    d |= static_cast<unsigned>(k.bit(t * kCombSpacing + col)) << t;
  return d;
}

U256 reduce_mod_n(const U256& k) {
  U256 r = k;
  while (cmp(r, kN) >= 0) sub(r, r, kN);
  return r;
}

}  // namespace

JacobianPoint base_mult(const U256& k) {
  const U256 kr = reduce_mod_n(k);
  if (kr.is_zero()) return JacobianPoint{};
  const std::vector<AffinePoint>& tbl = base_comb_table();
  JacobianPoint acc{};
  for (int col = kCombSpacing - 1; col >= 0; --col) {
    acc = point_double(acc);
    const unsigned d = comb_digit(kr, col);
    if (d != 0) acc = point_add_affine(acc, tbl[d]);
  }
  return acc;
}

PointCombTable PointCombTable::build(const AffinePoint& p) {
  PointCombTable tbl;
  tbl.point_ = p;
  if (!p.infinity) tbl.entries_ = build_comb_entries(p);
  return tbl;
}

JacobianPoint PointCombTable::mult(const U256& k) const {
  const U256 kr = reduce_mod_n(k);
  if (kr.is_zero() || point_.infinity) return JacobianPoint{};
  JacobianPoint acc{};
  for (int col = kCombSpacing - 1; col >= 0; --col) {
    acc = point_double(acc);
    const unsigned d = comb_digit(kr, col);
    if (d != 0) acc = point_add_affine(acc, entries_[d]);
  }
  return acc;
}

JacobianPoint double_scalar_mult_comb(const U256& u1, const U256& u2,
                                      const PointCombTable& q) {
  const U256 u1r = reduce_mod_n(u1);
  const U256 u2r = q.point().infinity ? U256{} : reduce_mod_n(u2);
  if (u2r.is_zero()) return base_mult(u1r);
  if (u1r.is_zero()) return q.mult(u2r);
  const std::vector<AffinePoint>& gtbl = base_comb_table();
  JacobianPoint acc{};
  for (int col = kCombSpacing - 1; col >= 0; --col) {
    acc = point_double(acc);
    const unsigned d1 = comb_digit(u1r, col);
    if (d1 != 0) acc = point_add_affine(acc, gtbl[d1]);
    const unsigned d2 = comb_digit(u2r, col);
    if (d2 != 0) acc = point_add_affine(acc, q.entry(d2));
  }
  return acc;
}

JacobianPoint double_scalar_mult(const U256& u1, const U256& u2,
                                 const AffinePoint& q) {
  const U256 u1r = reduce_mod_n(u1);
  const U256 u2r = q.infinity ? U256{} : reduce_mod_n(u2);
  std::int8_t d1[257], d2[257];
  const int len1 = u1r.is_zero() ? 0 : wnaf_digits(u1r, kWnafWidthBase, d1);
  const int len2 = u2r.is_zero() ? 0 : wnaf_digits(u2r, kWnafWidth, d2);
  const std::vector<AffinePoint>& gtbl = base_wnaf_table();
  const std::vector<JacobianPoint> qtbl =
      len2 != 0 ? odd_multiples(q, kWnafWidth) : std::vector<JacobianPoint>{};
  JacobianPoint acc{};
  for (int i = std::max(len1, len2) - 1; i >= 0; --i) {
    acc = point_double(acc);
    if (i < len1 && d1[i] != 0) {
      const int d = d1[i];
      const AffinePoint& g = gtbl[static_cast<std::size_t>(std::abs(d) / 2)];
      acc = point_add_affine(acc, d > 0 ? g : affine_negate(g));
    }
    if (i < len2 && d2[i] != 0) {
      const int d = d2[i];
      const JacobianPoint& t = qtbl[static_cast<std::size_t>(std::abs(d) / 2)];
      acc = point_add(acc, d > 0 ? t : jac_negate(t));
    }
  }
  return acc;
}

bool on_curve(const AffinePoint& p) {
  if (p.infinity) return true;
  if (cmp(p.x, kP) >= 0 || cmp(p.y, kP) >= 0) return false;
  const U256 y2 = fp_sqr(p.y);
  const U256 x3 = fp_mul(fp_sqr(p.x), p.x);
  // x^3 - 3x + b
  const U256 three_x = fp_add(fp_add(p.x, p.x), p.x);
  const U256 rhs = fp_add(fp_sub(x3, three_x), kB);
  return y2 == rhs;
}

}  // namespace bm::crypto
