// Differential tests for the per-point Lim-Lee comb tables and the
// per-identity CombCache: every comb result must be bit-identical to the
// generic scalar-multiplication and verification paths, including edge
// scalars and cache eviction churn.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "crypto/comb_cache.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/sha256.hpp"
#include "crypto_oracles.hpp"

namespace bm::crypto {
namespace {

AffinePoint random_point(Rng& rng) {
  const U256 k = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
  return to_affine(base_mult(k));
}

std::vector<U256> edge_scalars() {
  const U256 one = U256::from_u64(1);
  U256 n_minus_1 = p256_n();
  sub(n_minus_1, n_minus_1, one);
  U256 n_plus_1;
  add(n_plus_1, p256_n(), one);
  U256 all_ones;
  all_ones.w.fill(~std::uint64_t{0});
  return {U256{}, one, n_minus_1, p256_n(), n_plus_1, all_ones};
}

TEST(PointCombTable, MatchesGenericScalarMult) {
  Rng rng(11);
  for (int pt = 0; pt < 3; ++pt) {
    const AffinePoint p = random_point(rng);
    const PointCombTable table = PointCombTable::build(p);
    EXPECT_EQ(table.point(), p);
    for (int i = 0; i < 8; ++i) {
      const U256 k = U256::from_bytes_be(rng.bytes(32));
      EXPECT_EQ(to_affine(table.mult(k)), to_affine(scalar_mult_naive(k, p)));
    }
  }
}

TEST(PointCombTable, EdgeScalars) {
  Rng rng(12);
  const AffinePoint p = random_point(rng);
  const PointCombTable table = PointCombTable::build(p);
  for (const U256& k : edge_scalars())
    EXPECT_EQ(to_affine(table.mult(k)), to_affine(scalar_mult_naive(k, p)));
}

TEST(PointCombTable, InfinityPoint) {
  const PointCombTable table = PointCombTable::build(AffinePoint{{}, {}, true});
  EXPECT_TRUE(table.mult(U256::from_u64(7)).is_infinity());
  EXPECT_TRUE(table.mult(U256{}).is_infinity());
}

TEST(PointCombTable, DoubleScalarMatchesGeneric) {
  Rng rng(13);
  const AffinePoint q = random_point(rng);
  const PointCombTable table = PointCombTable::build(q);
  for (int i = 0; i < 8; ++i) {
    const U256 u1 = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
    const U256 u2 = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
    EXPECT_EQ(to_affine(double_scalar_mult_comb(u1, u2, table)),
              to_affine(double_scalar_mult(u1, u2, q)));
  }
  // Degenerate operands: one or both scalars zero.
  const U256 u = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
  EXPECT_EQ(to_affine(double_scalar_mult_comb(U256{}, u, table)),
            to_affine(double_scalar_mult(U256{}, u, q)));
  EXPECT_EQ(to_affine(double_scalar_mult_comb(u, U256{}, table)),
            to_affine(double_scalar_mult(u, U256{}, q)));
  EXPECT_TRUE(double_scalar_mult_comb(U256{}, U256{}, table).is_infinity());
}

TEST(PointCombTable, ExceptionalBranchesOnGeneratorTable) {
  // A table on G itself makes both lookups of a column read the same
  // entries. With u1 = u2 the second mixed add of the first nonzero column
  // meets its own input and must take the in-loop doubling; with
  // u2 = n - u1 the walk sums to n*G and must leave through the P + (-P)
  // branch. Zero scalars leave one side of the walk.
  Rng rng(15);
  const AffinePoint& g = p256_generator();
  const PointCombTable table = PointCombTable::build(g);
  const auto naive = [&](const U256& u1, const U256& u2) {
    return to_affine(point_add(scalar_mult_naive(u1, g), scalar_mult_naive(u2, g)));
  };
  std::vector<U256> scalars = {U256::from_u64(1), U256::from_u64(0xff)};
  for (int i = 0; i < 4; ++i)
    scalars.push_back(mod(U256::from_bytes_be(rng.bytes(32)), p256_n()));
  for (const U256& u : scalars) {
    U256 n_minus_u;
    sub(n_minus_u, p256_n(), u);
    EXPECT_EQ(to_affine(double_scalar_mult_comb(u, u, table)), naive(u, u));
    EXPECT_TRUE(double_scalar_mult_comb(u, n_minus_u, table).is_infinity());
    EXPECT_EQ(to_affine(double_scalar_mult_comb(u, n_minus_u, table)),
              naive(u, n_minus_u));
    EXPECT_EQ(to_affine(double_scalar_mult_comb(U256{}, u, table)),
              naive(U256{}, u));
    EXPECT_EQ(to_affine(double_scalar_mult_comb(u, U256{}, table)),
              naive(u, U256{}));
  }
}

TEST(VerifyComb, MatchesGenericVerify) {
  Rng rng(14);
  const PrivateKey key = key_from_seed(to_bytes("comb-verify"));
  const PublicKey pub = key.public_key();
  const PointCombTable table = PointCombTable::build(pub.point);
  for (int i = 0; i < 6; ++i) {
    const Digest digest = sha256(rng.bytes(48));
    Signature sig = sign(key, digest);
    EXPECT_TRUE(verify_comb(pub, digest, sig, table));
    EXPECT_EQ(verify_comb(pub, digest, sig, table), verify(pub, digest, sig));

    // Tampered signature and wrong digest must fail identically.
    Signature bad = sig;
    bad.s = add_mod(bad.s, U256::from_u64(1), p256_n());
    EXPECT_EQ(verify_comb(pub, digest, bad, table), verify(pub, digest, bad));
    EXPECT_FALSE(verify_comb(pub, digest, bad, table));
    const Digest other = sha256(rng.bytes(48));
    EXPECT_EQ(verify_comb(pub, other, sig, table), verify(pub, other, sig));
    EXPECT_FALSE(verify_comb(pub, other, sig, table));
  }
  // Out-of-range signature components are rejected before any multiply.
  Signature zero{};
  const Digest digest = sha256(to_bytes("d"));
  EXPECT_EQ(verify_comb(pub, digest, zero, table), verify(pub, digest, zero));
  EXPECT_FALSE(verify_comb(pub, digest, zero, table));
}

TEST(CombCache, HitMissAccounting) {
  CombCache cache(4);
  const PrivateKey k1 = key_from_seed(to_bytes("cc1"));
  const PrivateKey k2 = key_from_seed(to_bytes("cc2"));
  const Digest digest = sha256(to_bytes("payload"));

  EXPECT_TRUE(cache.verify(k1.public_key(), digest, sign(k1, digest)));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_TRUE(cache.verify(k1.public_key(), digest, sign(k1, digest)));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_TRUE(cache.verify(k2.public_key(), digest, sign(k2, digest)));
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Same table object handed back for the same key.
  const auto t1 = cache.table_for(k1.public_key());
  const auto t2 = cache.table_for(k1.public_key());
  EXPECT_EQ(t1.get(), t2.get());
  EXPECT_EQ(t1->point(), k1.public_key().point);
}

TEST(CombCache, EvictionAndRebuildUnderChurn) {
  // Capacity 2, four identities verifying round-robin: every access past
  // the first pass misses and evicts, and every verification must still
  // agree with the generic path.
  CombCache cache(2);
  std::vector<PrivateKey> keys;
  for (int i = 0; i < 4; ++i)
    keys.push_back(key_from_seed(to_bytes("churn" + std::to_string(i))));

  Rng rng(15);
  for (int round = 0; round < 3; ++round) {
    for (const PrivateKey& key : keys) {
      const Digest digest = sha256(rng.bytes(32));
      const Signature sig = sign(key, digest);
      EXPECT_TRUE(cache.verify(key.public_key(), digest, sig));
      EXPECT_EQ(cache.verify(key.public_key(), digest, sig),
                verify(key.public_key(), digest, sig));
      EXPECT_LE(cache.size(), 2u);
    }
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_GT(cache.misses(), 4u);  // rebuilt after eviction

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  const Digest digest = sha256(to_bytes("after-clear"));
  EXPECT_TRUE(
      cache.verify(keys[0].public_key(), digest, sign(keys[0], digest)));
}

TEST(CombCache, InvalidKeyBypassesTableBuild) {
  CombCache cache(4);
  PublicKey bogus;
  bogus.point.infinity = true;
  const Digest digest = sha256(to_bytes("x"));
  const PrivateKey real = key_from_seed(to_bytes("real"));
  const Signature sig = sign(real, digest);
  EXPECT_FALSE(cache.verify(bogus, digest, sig));
  EXPECT_EQ(cache.size(), 0u);  // no table built for an invalid key
  EXPECT_EQ(cache.misses(), 0u);
}

}  // namespace
}  // namespace bm::crypto
