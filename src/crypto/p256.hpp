// NIST P-256 (secp256r1) curve arithmetic.
//
// The public types and functions here work in standard form: field elements
// are U256 values < p and points hold their plain coordinates. Inside
// p256.cpp every field element is kept in Montgomery form (x*2^256 mod p)
// and multiplied by the inlined kernel of crypto/montgomery.hpp; values
// enter that form at table build and on entry to a scalar multiplication
// and leave it at the end. Points use Jacobian projective coordinates; the
// point at infinity is represented by Z = 0.
#pragma once

#include <vector>

#include "crypto/u256.hpp"

namespace bm::crypto {

/// Curve parameters (y^2 = x^3 - 3x + b over F_p, group order n).
const U256& p256_p();
const U256& p256_n();
const U256& p256_b();

/// Field arithmetic mod p on standard-form values (inputs must be < p).
/// fp_mul is two Montgomery multiplies (a*b*R^-1, then times R^2); fp_inv
/// is an addition chain of 255 squarings and 12 multiplies in Montgomery
/// form. fp_inv(0) is 0.
U256 fp_add(const U256& a, const U256& b);
U256 fp_sub(const U256& a, const U256& b);
U256 fp_mul(const U256& a, const U256& b);
U256 fp_sqr(const U256& a);
U256 fp_inv(const U256& a);

struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = false;

  friend bool operator==(const AffinePoint&, const AffinePoint&) = default;
};

struct JacobianPoint {
  U256 x;
  U256 y;
  U256 z;  ///< Zero limbs mean the point at infinity.

  bool is_infinity() const { return z.is_zero(); }
};

namespace detail {

/// A field element in Montgomery form, x*2^256 mod p. Only p256.cpp does
/// arithmetic on it; being its own type keeps it from mixing with
/// standard-form U256 values.
struct Fe {
  U256 v;

  friend bool operator==(const Fe&, const Fe&) = default;
};

/// An affine point with Montgomery-form coordinates: the comb tables'
/// entry type.
struct MontAffinePoint {
  Fe x;
  Fe y;
  bool infinity = false;
};

}  // namespace detail

/// The group generator G.
const AffinePoint& p256_generator();

JacobianPoint to_jacobian(const AffinePoint& p);
AffinePoint to_affine(const JacobianPoint& p);

/// True iff p is finite and x(p) mod n == r, for r < n, decided without a
/// field inversion: X == r*Z^2, or r + n < p and X == (r + n)*Z^2 (mod p).
/// The final comparison of ECDSA verification.
bool jacobian_x_equals_mod_n(const JacobianPoint& p, const U256& r);

JacobianPoint point_double(const JacobianPoint& p);
JacobianPoint point_add(const JacobianPoint& p, const JacobianPoint& q);
/// Mixed Jacobian + affine addition (Z2 = 1), ~30% cheaper than the general
/// formulas; used with the precomputed affine tables.
JacobianPoint point_add_affine(const JacobianPoint& p, const AffinePoint& q);

/// Convert many Jacobian points with one field inversion (Montgomery's
/// simultaneous-inversion trick); used to build the fixed-base tables.
std::vector<AffinePoint> batch_to_affine(const std::vector<JacobianPoint>& pts);

/// k * G via the precomputed fixed-base comb table (8 teeth x 32 columns):
/// 31 doublings + <= 32 mixed additions. The signing hot path.
JacobianPoint base_mult(const U256& k);

/// u1*G + u2*Q by joint wNAF (Shamir's trick): one shared doubling chain,
/// G digits resolved against a precomputed affine odd-multiples table and Q
/// digits against a per-call table; the generic ECDSA verification path.
JacobianPoint double_scalar_mult(const U256& u1, const U256& u2,
                                 const AffinePoint& q);

/// Per-point Lim–Lee comb table, the same 8-teeth x 32-column layout the
/// generator's fixed-base table uses: 255 affine entries (~16 KiB). Building
/// one costs a few hundred point operations — roughly two generic scalar
/// multiplications — which amortizes whenever the same point is multiplied
/// more than a handful of times (hot endorser public keys).
class PointCombTable {
 public:
  /// Precompute the table for P. An infinity P yields a table whose
  /// multiplies all return infinity.
  static PointCombTable build(const AffinePoint& p);

  const AffinePoint& point() const { return point_; }

  /// k * P via the comb: 31 doublings + <= 32 mixed additions. Every
  /// finite curve point has order n (cofactor 1), so k is reduced mod n
  /// first.
  JacobianPoint mult(const U256& k) const;

 private:
  friend JacobianPoint double_scalar_mult_comb(const U256& u1, const U256& u2,
                                               const PointCombTable& q);

  PointCombTable() = default;

  AffinePoint point_{{}, {}, true};
  /// 256 entries in Montgomery form, entry 0 unused: entry d (1..255) is
  /// the sum over set bits t of d of 2^(32t) * P.
  std::vector<detail::MontAffinePoint> entries_;
};

/// u1*G + u2*Q with Q on a prebuilt comb table: ONE shared 31-doubling
/// chain with both comb lookups folded per column, <= 64 mixed additions
/// total. The generic joint-wNAF path pays ~256 doublings, so a table hit
/// makes verification ~4x cheaper — the per-identity ECDSA hot path.
JacobianPoint double_scalar_mult_comb(const U256& u1, const U256& u2,
                                      const PointCombTable& q);

/// True iff (x, y) satisfies the curve equation and both are < p.
bool on_curve(const AffinePoint& p);

}  // namespace bm::crypto
