#include "crypto/p256.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>

#include "crypto/montgomery.hpp"

namespace bm::crypto {

using detail::Fe;
using detail::kModN;
using detail::kModP;
using MontAffine = detail::MontAffinePoint;

namespace {

const U256 kB = U256::from_hex(
    "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b");
const AffinePoint kG = {
    U256::from_hex(
        "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"),
    U256::from_hex(
        "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"),
    false};

// Field arithmetic in Montgomery form. Every Fe is fully reduced (< p), so
// equality and zero tests read the same as in standard form. The kernel and
// the p-specialised add and sub are forced inline into every formula, where
// p's limbs fold into the code.

[[gnu::always_inline]] inline Fe fe_mul(const Fe& a, const Fe& b) {
  return {detail::mont_mul(a.v, b.v, kModP)};
}
[[gnu::always_inline]] inline Fe fe_sqr(const Fe& a) { return fe_mul(a, a); }
[[gnu::always_inline]] inline Fe fe_add(const Fe& a, const Fe& b) {
  return {detail::mod_add(a.v, b.v, kModP)};
}
[[gnu::always_inline]] inline Fe fe_sub(const Fe& a, const Fe& b) {
  return {detail::mod_sub(a.v, b.v, kModP)};
}
Fe fe_from(const U256& a) { return {detail::to_mont(a, kModP)}; }
U256 fe_to(const Fe& a) { return detail::from_mont(a.v, kModP); }

constexpr Fe kOne{detail::to_mont(U256{{1, 0, 0, 0}}, kModP)};

Fe fe_inv(const Fe& a) {
  // Fermat, a^(p-2), by a fixed addition chain: 255 squarings and 12
  // multiplications. From the top, p - 2 is 32 ones, 31 zeros, a one, 96
  // zeros, 94 ones, a zero and a one.
  const auto sqr_n = [](Fe x, int n) {
    for (int i = 0; i < n; ++i) x = fe_sqr(x);
    return x;
  };
  // xk = a^(2^k - 1): k consecutive one bits.
  const Fe x2 = fe_mul(fe_sqr(a), a);
  const Fe x3 = fe_mul(fe_sqr(x2), a);
  const Fe x6 = fe_mul(sqr_n(x3, 3), x3);
  const Fe x12 = fe_mul(sqr_n(x6, 6), x6);
  const Fe x15 = fe_mul(sqr_n(x12, 3), x3);
  const Fe x30 = fe_mul(sqr_n(x15, 15), x15);
  const Fe x32 = fe_mul(sqr_n(x30, 2), x2);
  Fe t = fe_mul(sqr_n(x32, 32), a);  // 32 ones, 31 zeros, 1
  t = fe_mul(sqr_n(t, 128), x32);    // then 96 zeros, 32 ones
  t = fe_mul(sqr_n(t, 32), x32);     // then 32 ones
  t = fe_mul(sqr_n(t, 30), x30);     // then 30 ones
  return fe_mul(sqr_n(t, 2), a);     // then 0, 1
}

/// A Jacobian point with Montgomery-form coordinates; Z = 0 is infinity.
struct Jac {
  Fe x;
  Fe y;
  Fe z;

  bool is_infinity() const { return z.v.is_zero(); }
};

Jac to_mont(const JacobianPoint& p) {
  return {fe_from(p.x), fe_from(p.y), fe_from(p.z)};
}

JacobianPoint from_mont(const Jac& p) {
  return {fe_to(p.x), fe_to(p.y), fe_to(p.z)};
}

MontAffine to_mont(const AffinePoint& p) {
  return {fe_from(p.x), fe_from(p.y), p.infinity};
}

AffinePoint from_mont(const MontAffine& p) {
  if (p.infinity) return AffinePoint{{}, {}, true};
  return AffinePoint{fe_to(p.x), fe_to(p.y), false};
}

Jac jac_from_affine(const MontAffine& q) {
  if (q.infinity) return Jac{};
  return {q.x, q.y, kOne};
}

// The point formulas: the one implementation of each, over Montgomery
// coordinates. The public standard-form functions convert around them.

Jac jac_double(const Jac& p) {
  if (p.is_infinity() || p.y.v.is_zero()) return Jac{};
  // dbl-2001-b formulas for a = -3.
  const Fe delta = fe_sqr(p.z);
  const Fe gamma = fe_sqr(p.y);
  const Fe beta = fe_mul(p.x, gamma);
  const Fe xmd = fe_sub(p.x, delta);
  const Fe alpha = fe_mul(fe_add(fe_add(xmd, xmd), xmd), fe_add(p.x, delta));
  const Fe beta2 = fe_add(beta, beta);
  const Fe beta4 = fe_add(beta2, beta2);
  Jac r;
  r.x = fe_sub(fe_sqr(alpha), fe_add(beta4, beta4));
  const Fe yz = fe_mul(p.y, p.z);
  r.z = fe_add(yz, yz);  // 2YZ = (Y + Z)^2 - gamma - delta
  const Fe gamma2 = fe_sqr(gamma);
  const Fe gamma2_2 = fe_add(gamma2, gamma2);
  const Fe gamma2_4 = fe_add(gamma2_2, gamma2_2);
  r.y = fe_sub(fe_mul(alpha, fe_sub(beta4, r.x)), fe_add(gamma2_4, gamma2_4));
  return r;
}

Jac jac_add(const Jac& p, const Jac& q) {
  if (p.is_infinity()) return q;
  if (q.is_infinity()) return p;
  const Fe z1z1 = fe_sqr(p.z);
  const Fe z2z2 = fe_sqr(q.z);
  const Fe u1 = fe_mul(p.x, z2z2);
  const Fe u2 = fe_mul(q.x, z1z1);
  const Fe s1 = fe_mul(p.y, fe_mul(z2z2, q.z));
  const Fe s2 = fe_mul(q.y, fe_mul(z1z1, p.z));
  if (u1 == u2) {
    if (s1 == s2) return jac_double(p);
    return Jac{};  // p + (-p)
  }
  const Fe h = fe_sub(u2, u1);
  const Fe r = fe_sub(s2, s1);
  const Fe h2 = fe_sqr(h);
  const Fe h3 = fe_mul(h2, h);
  const Fe u1h2 = fe_mul(u1, h2);
  Jac out;
  out.x = fe_sub(fe_sub(fe_sqr(r), h3), fe_add(u1h2, u1h2));
  out.y = fe_sub(fe_mul(r, fe_sub(u1h2, out.x)), fe_mul(s1, h3));
  out.z = fe_mul(fe_mul(p.z, q.z), h);
  return out;
}

Jac jac_add_affine(const Jac& p, const MontAffine& q) {
  if (q.infinity) return p;
  if (p.is_infinity()) return jac_from_affine(q);
  // Mixed addition (madd-2007-bl shape, Z2 = 1).
  const Fe z1z1 = fe_sqr(p.z);
  const Fe u2 = fe_mul(q.x, z1z1);
  const Fe s2 = fe_mul(q.y, fe_mul(z1z1, p.z));
  if (p.x == u2) {
    if (p.y == s2) return jac_double(p);
    return Jac{};  // p + (-p)
  }
  const Fe h = fe_sub(u2, p.x);
  const Fe r = fe_sub(s2, p.y);
  const Fe h2 = fe_sqr(h);
  const Fe h3 = fe_mul(h2, h);
  const Fe v = fe_mul(p.x, h2);
  Jac out;
  out.x = fe_sub(fe_sub(fe_sqr(r), h3), fe_add(v, v));
  out.y = fe_sub(fe_mul(r, fe_sub(v, out.x)), fe_mul(p.y, h3));
  out.z = fe_mul(p.z, h);
  return out;
}

std::vector<MontAffine> jac_batch_to_affine(const std::vector<Jac>& pts) {
  // Montgomery's trick: one inversion plus 3(n-1) multiplications inverts
  // every Z at once; infinities pass through with Z treated as 1.
  std::vector<MontAffine> out(pts.size());
  std::vector<Fe> prefix(pts.size());
  Fe acc = kOne;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    prefix[i] = acc;
    if (!pts[i].is_infinity()) acc = fe_mul(acc, pts[i].z);
  }
  Fe inv = fe_inv(acc);
  for (std::size_t i = pts.size(); i-- > 0;) {
    if (pts[i].is_infinity()) {
      out[i] = MontAffine{{}, {}, true};
      continue;
    }
    const Fe zinv = fe_mul(inv, prefix[i]);
    inv = fe_mul(inv, pts[i].z);
    const Fe zinv2 = fe_sqr(zinv);
    out[i] = MontAffine{fe_mul(pts[i].x, zinv2),
                        fe_mul(pts[i].y, fe_mul(zinv2, zinv)), false};
  }
  return out;
}

}  // namespace

const U256& p256_p() { return kModP.m; }
const U256& p256_n() { return kModN.m; }
const U256& p256_b() { return kB; }
const AffinePoint& p256_generator() { return kG; }

U256 fp_add(const U256& a, const U256& b) { return detail::mod_add(a, b, kModP); }
U256 fp_sub(const U256& a, const U256& b) { return detail::mod_sub(a, b, kModP); }

U256 fp_mul(const U256& a, const U256& b) {
  // a*b*R^-1, then times R^2 (and R^-1) back to a*b.
  return detail::mont_mul(detail::mont_mul(a, b, kModP), kModP.r2, kModP);
}

U256 fp_sqr(const U256& a) { return fp_mul(a, a); }

U256 fp_inv(const U256& a) { return fe_to(fe_inv(fe_from(a))); }

JacobianPoint to_jacobian(const AffinePoint& p) {
  if (p.infinity) return JacobianPoint{};
  return JacobianPoint{p.x, p.y, U256::from_u64(1)};
}

AffinePoint to_affine(const JacobianPoint& p) {
  return from_mont(jac_batch_to_affine({to_mont(p)}).front());
}

bool jacobian_x_equals_mod_n(const JacobianPoint& p, const U256& r) {
  if (p.is_infinity()) return false;
  // The affine x = X / Z^2 lies in [0, p) and p < 2n, so x mod n == r
  // exactly when x == r or x == r + n (the latter only if r + n < p).
  const Fe x = fe_from(p.x);
  const Fe z2 = fe_sqr(fe_from(p.z));
  if (fe_mul(fe_from(r), z2) == x) return true;
  U256 rn;
  if (add(rn, r, kModN.m) != 0 || cmp(rn, kModP.m) >= 0) return false;
  return fe_mul(fe_from(rn), z2) == x;
}

JacobianPoint point_double(const JacobianPoint& p) {
  return from_mont(jac_double(to_mont(p)));
}

JacobianPoint point_add(const JacobianPoint& p, const JacobianPoint& q) {
  return from_mont(jac_add(to_mont(p), to_mont(q)));
}

JacobianPoint point_add_affine(const JacobianPoint& p, const AffinePoint& q) {
  return from_mont(jac_add_affine(to_mont(p), to_mont(q)));
}

std::vector<AffinePoint> batch_to_affine(const std::vector<JacobianPoint>& pts) {
  std::vector<Jac> in;
  in.reserve(pts.size());
  for (const JacobianPoint& p : pts) in.push_back(to_mont(p));
  std::vector<AffinePoint> out;
  out.reserve(pts.size());
  for (const MontAffine& a : jac_batch_to_affine(in)) out.push_back(from_mont(a));
  return out;
}

namespace {

Jac jac_negate(const Jac& p) {
  if (p.is_infinity() || p.y.v.is_zero()) return p;
  return Jac{p.x, fe_sub(Fe{}, p.y), p.z};
}

MontAffine affine_negate(const MontAffine& p) {
  if (p.infinity || p.y.v.is_zero()) return p;
  return MontAffine{p.x, fe_sub(Fe{}, p.y), false};
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
std::vector<Jac> odd_multiples(const AffinePoint& p, int w) {
  const int count = 1 << (w - 2);
  std::vector<Jac> tbl(static_cast<std::size_t>(count));
  tbl[0] = jac_from_affine(to_mont(p));
  const Jac p2 = jac_double(tbl[0]);
  for (int i = 1; i < count; ++i) tbl[i] = jac_add(tbl[i - 1], p2);
  return tbl;
}

/// Precomputed affine odd multiples of G for the joint-wNAF verify path.
const std::vector<MontAffine>& base_wnaf_table() {
  static const std::vector<MontAffine> tbl =
      jac_batch_to_affine(odd_multiples(kG, kWnafWidthBase));
  return tbl;
}

/// Lim–Lee comb entries for P: entry d (1..255) is sum_{t in bits(d)}
/// 2^(32t) * P, stored affine. 255 entries, ~16 KiB.
std::vector<MontAffine> build_comb_entries(const AffinePoint& p) {
  std::array<Jac, kCombTeeth> spine;
  spine[0] = jac_from_affine(to_mont(p));
  for (int t = 1; t < kCombTeeth; ++t) {
    spine[t] = spine[t - 1];
    for (int i = 0; i < kCombSpacing; ++i) spine[t] = jac_double(spine[t]);
  }
  std::vector<Jac> entries(1u << kCombTeeth);  // entry 0 unused
  for (unsigned d = 1; d < entries.size(); ++d) {
    const unsigned t = static_cast<unsigned>(__builtin_ctz(d));
    entries[d] =
        d == (1u << t) ? spine[t] : jac_add(entries[d & (d - 1)], spine[t]);
  }
  return jac_batch_to_affine(entries);
}

const std::vector<MontAffine>& base_comb_table() {
  static const std::vector<MontAffine> tbl = build_comb_entries(kG);
  return tbl;
}

/// Column digit of the comb decomposition: bit t*32+col of k selects tooth t.
unsigned comb_digit(const U256& k, int col) {
  unsigned d = 0;
  for (int t = 0; t < kCombTeeth; ++t)
    d |= static_cast<unsigned>(k.bit(t * kCombSpacing + col)) << t;
  return d;
}

/// k1*T1 + k2*T2 for comb tables T1 and T2 on one shared 31-doubling chain,
/// converted out of Montgomery form at the end. A zero scalar's table is
/// never read.
JacobianPoint comb_mult(const U256& k1, const std::vector<MontAffine>& t1,
                        const U256& k2, const std::vector<MontAffine>& t2) {
  Jac acc{};
  for (int col = kCombSpacing - 1; col >= 0; --col) {
    acc = jac_double(acc);
    const unsigned d1 = comb_digit(k1, col);
    if (d1 != 0) acc = jac_add_affine(acc, t1[d1]);
    const unsigned d2 = comb_digit(k2, col);
    if (d2 != 0) acc = jac_add_affine(acc, t2[d2]);
  }
  return from_mont(acc);
}

U256 reduce_mod_n(const U256& k) {
  U256 r = k;
  while (cmp(r, kModN.m) >= 0) sub(r, r, kModN.m);
  return r;
}

}  // namespace

JacobianPoint base_mult(const U256& k) {
  const std::vector<MontAffine>& tbl = base_comb_table();
  return comb_mult(reduce_mod_n(k), tbl, U256{}, tbl);
}

PointCombTable PointCombTable::build(const AffinePoint& p) {
  PointCombTable tbl;
  tbl.point_ = p;
  if (!p.infinity) tbl.entries_ = build_comb_entries(p);
  return tbl;
}

JacobianPoint PointCombTable::mult(const U256& k) const {
  if (point_.infinity) return JacobianPoint{};
  return comb_mult(reduce_mod_n(k), entries_, U256{}, entries_);
}

JacobianPoint double_scalar_mult_comb(const U256& u1, const U256& u2,
                                      const PointCombTable& q) {
  const U256 u2r = q.point().infinity ? U256{} : reduce_mod_n(u2);
  return comb_mult(reduce_mod_n(u1), base_comb_table(), u2r, q.entries_);
}

JacobianPoint double_scalar_mult(const U256& u1, const U256& u2,
                                 const AffinePoint& q) {
  const U256 u1r = reduce_mod_n(u1);
  const U256 u2r = q.infinity ? U256{} : reduce_mod_n(u2);
  std::int8_t d1[257], d2[257];
  const int len1 = u1r.is_zero() ? 0 : wnaf_digits(u1r, kWnafWidthBase, d1);
  const int len2 = u2r.is_zero() ? 0 : wnaf_digits(u2r, kWnafWidth, d2);
  const std::vector<MontAffine>& gtbl = base_wnaf_table();
  const std::vector<Jac> qtbl =
      len2 != 0 ? odd_multiples(q, kWnafWidth) : std::vector<Jac>{};
  Jac acc{};
  for (int i = std::max(len1, len2) - 1; i >= 0; --i) {
    acc = jac_double(acc);
    if (i < len1 && d1[i] != 0) {
      const int d = d1[i];
      const MontAffine& g = gtbl[static_cast<std::size_t>(std::abs(d) / 2)];
      acc = jac_add_affine(acc, d > 0 ? g : affine_negate(g));
    }
    if (i < len2 && d2[i] != 0) {
      const int d = d2[i];
      const Jac& t = qtbl[static_cast<std::size_t>(std::abs(d) / 2)];
      acc = jac_add(acc, d > 0 ? t : jac_negate(t));
    }
  }
  return from_mont(acc);
}

bool on_curve(const AffinePoint& p) {
  if (p.infinity) return true;
  if (cmp(p.x, kModP.m) >= 0 || cmp(p.y, kModP.m) >= 0) return false;
  const U256 y2 = fp_sqr(p.y);
  const U256 x3 = fp_mul(fp_sqr(p.x), p.x);
  // x^3 - 3x + b
  const U256 three_x = fp_add(fp_add(p.x, p.x), p.x);
  const U256 rhs = fp_add(fp_sub(x3, three_x), kB);
  return y2 == rhs;
}

}  // namespace bm::crypto
