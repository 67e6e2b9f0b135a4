// Microbenchmarks for the crypto substrate and the CRC-32 record checksum
// (google-benchmark).
//
// These measure the host CPU's software implementations — the operations
// the paper offloads. A software ECDSA verification in the hundreds of
// microseconds is exactly the §4.3 observation that motivates parallel
// ecdsa_engines (145 us each in hardware).
#include <benchmark/benchmark.h>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "crypto/der.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/montgomery.hpp"
#include "crypto_oracles.hpp"

namespace {

using namespace bm;
using namespace bm::crypto;

void BM_Sha256(benchmark::State& state) {
  const Bytes data = Rng(1).bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Crc32(benchmark::State& state) {
  const Bytes data = Rng(1).bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1024)->Arg(65536);

void BM_EcdsaSign(benchmark::State& state) {
  const PrivateKey key = key_from_seed(to_bytes("bench"));
  const Digest digest = sha256(to_bytes("message"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sign(key, digest));
  }
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  const PrivateKey key = key_from_seed(to_bytes("bench"));
  const PublicKey pub = key.public_key();
  const Digest digest = sha256(to_bytes("message"));
  const Signature sig = sign(key, digest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify(pub, digest, sig));
  }
}
BENCHMARK(BM_EcdsaVerify);

void BM_EcdsaVerifyComb(benchmark::State& state) {
  // The validator's path: the key's comb table is built once, outside the
  // loop, as the per-identity cache does.
  const PrivateKey key = key_from_seed(to_bytes("bench"));
  const PublicKey pub = key.public_key();
  const PointCombTable table = PointCombTable::build(pub.point);
  const Digest digest = sha256(to_bytes("message"));
  const Signature sig = sign(key, digest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_comb(pub, digest, sig, table));
  }
}
BENCHMARK(BM_EcdsaVerifyComb);

void BM_DerRoundTrip(benchmark::State& state) {
  const PrivateKey key = key_from_seed(to_bytes("bench"));
  const Signature sig = sign(key, sha256(to_bytes("m")));
  for (auto _ : state) {
    const Bytes der = der_encode_signature(sig);
    benchmark::DoNotOptimize(der_decode_signature(der));
  }
}
BENCHMARK(BM_DerRoundTrip);

void BM_FieldMul(benchmark::State& state) {
  Rng rng(2);
  U256 a = mod(U256::from_bytes_be(rng.bytes(32)), p256_p());
  const U256 b = mod(U256::from_bytes_be(rng.bytes(32)), p256_p());
  for (auto _ : state) {
    a = fp_mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMul);

void BM_FieldMulMontgomery(benchmark::State& state) {
  // The kernel under every point formula, inlined here on the constexpr p
  // instance as p256.cpp inlines it: one Montgomery multiply per iteration,
  // where the public fp_mul above pays two plus a call.
  Rng rng(2);
  U256 a = mod(U256::from_bytes_be(rng.bytes(32)), p256_p());
  const U256 b = mod(U256::from_bytes_be(rng.bytes(32)), p256_p());
  for (auto _ : state) {
    a = detail::mont_mul(a, b, detail::kModP);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMulMontgomery);

void BM_FieldInv(benchmark::State& state) {
  Rng rng(3);
  U256 a = mod(U256::from_bytes_be(rng.bytes(32)), p256_p());
  for (auto _ : state) {
    a = fp_inv(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldInv);

void BM_ScalarInv(benchmark::State& state) {
  // s^-1 mod n, once per sign and once per verify.
  Rng rng(8);
  U256 a = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
  for (auto _ : state) {
    a = inv_mod_prime(a, p256_n());
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ScalarInv);

void BM_ModNReduce(benchmark::State& state) {
  // The scalar-field reduction behind mul_mod: 512-bit product reduced mod
  // n via the limb-wise Knuth division (bit-by-bit before the fast path
  // landed).
  Rng rng(4);
  U512 a;
  for (auto& w : a.w) w = rng.next_u64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mod(a, p256_n()));
  }
}
BENCHMARK(BM_ModNReduce);

void BM_ScalarMultNaive(benchmark::State& state) {
  const AffinePoint q = key_from_seed(to_bytes("sm")).public_key().point;
  const U256 k = mod(U256::from_bytes_be(Rng(5).bytes(32)), p256_n());
  for (auto _ : state) {
    benchmark::DoNotOptimize(scalar_mult_naive(k, q));
  }
}
BENCHMARK(BM_ScalarMultNaive);

void BM_BaseMultComb(benchmark::State& state) {
  const U256 k = mod(U256::from_bytes_be(Rng(6).bytes(32)), p256_n());
  benchmark::DoNotOptimize(base_mult(k));  // warm the table outside the loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(base_mult(k));
  }
}
BENCHMARK(BM_BaseMultComb);

void BM_DoubleScalarMult(benchmark::State& state) {
  const AffinePoint q = key_from_seed(to_bytes("dsm")).public_key().point;
  Rng rng(7);
  const U256 u1 = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
  const U256 u2 = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
  benchmark::DoNotOptimize(double_scalar_mult(u1, u2, q));
  for (auto _ : state) {
    benchmark::DoNotOptimize(double_scalar_mult(u1, u2, q));
  }
}
BENCHMARK(BM_DoubleScalarMult);

void BM_CombDoubleMult(benchmark::State& state) {
  // u1*G + u2*Q on a prebuilt comb table, without the scalar inverse: the
  // point arithmetic of one comb verify.
  const AffinePoint q = key_from_seed(to_bytes("dsm")).public_key().point;
  const PointCombTable table = PointCombTable::build(q);
  Rng rng(7);
  const U256 u1 = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
  const U256 u2 = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
  benchmark::DoNotOptimize(double_scalar_mult_comb(u1, u2, table));
  for (auto _ : state) {
    benchmark::DoNotOptimize(double_scalar_mult_comb(u1, u2, table));
  }
}
BENCHMARK(BM_CombDoubleMult);

}  // namespace

BENCHMARK_MAIN();
