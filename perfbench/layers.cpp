#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "common/crc32.hpp"
#include "common/hex.hpp"
#include "crypto/der.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/p256.hpp"
#include "crypto/sha256.hpp"
#include "crypto/u256.hpp"
#include "fabric/block_store.hpp"
#include "fabric/commit_graph.hpp"
#include "fabric/orderer.hpp"
#include "fabric/transaction.hpp"
#include "fabric/validator_backend.hpp"

namespace perfbench {

using namespace bm;

namespace {

// Signatures and arithmetic operands per crypto replay: enough calls for a
// stable median, few enough to keep a traced run short.
constexpr std::size_t kSignatures = 64;
constexpr int kArithSpans = 7;
constexpr int kMulsPerSpan = 20000;
constexpr int kInvsPerSpan = 20;
constexpr int kStorageRepeats = 3;

volatile std::uint64_t g_sink = 0;  // keeps timed results observable

void replay_crypto(const std::vector<crypto::Digest>& digests,
                   const std::vector<std::pair<crypto::PublicKey,
                                               crypto::Signature>>& checks,
                   const std::vector<crypto::Digest>& checked_digests,
                   std::uint64_t seed, Spans& spans) {
  const crypto::PrivateKey key =
      crypto::key_from_seed(to_bytes("perfbench-" + std::to_string(seed)));
  std::vector<crypto::Signature> signatures;
  for (const crypto::Digest& digest : digests)
    signatures.push_back(
        spans.time("crypto.sign", [&] { return crypto::sign(key, digest); }));
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const bool ok = spans.time("crypto.verify", [&] {
      return crypto::verify(checks[i].first, checked_digests[i],
                            checks[i].second);
    });
    g_sink = g_sink + (ok ? 1 : 0);
  }
  if (signatures.empty()) return;

  // Operands from the signatures just made: r, s < n < p, and nonzero.
  crypto::U256 x = signatures.front().r;
  const crypto::U256 y = signatures.back().s;
  for (int span = 0; span < kArithSpans; ++span) {
    spans.time("crypto.field_mul", [&] {
      for (int i = 0; i < kMulsPerSpan; ++i) x = crypto::fp_mul(x, y);
    }, kMulsPerSpan);
    spans.time("crypto.field_inv", [&] {
      for (int i = 0; i < kInvsPerSpan; ++i) x = crypto::fp_inv(x);
    }, kInvsPerSpan);
    spans.time("crypto.scalar_inv", [&] {
      crypto::U256 s = signatures[static_cast<std::size_t>(span) %
                                  signatures.size()].s;
      for (int i = 0; i < kInvsPerSpan; ++i)
        s = crypto::inv_mod_prime(s, crypto::p256_n());
      g_sink = g_sink + s.w[0];
    }, kInvsPerSpan);
  }
  g_sink = g_sink + x.w[0];
}

}  // namespace

Replay replay_blocks(const std::vector<fabric::Block>& blocks,
                     const fabric::Msp& msp,
                     const std::map<std::string, fabric::EndorsementPolicy>&
                         policies,
                     fabric::Ledger& ledger, fabric::StateDb& state,
                     Spans* spans) {
  const auto backend =
      fabric::make_software_backend(msp, policies, {.parallelism = 1});
  Replay replay;
  for (const fabric::Block& block : blocks) {
    auto validate = [&] {
      return backend->validate_and_commit(block, state, ledger);
    };
    fabric::BlockValidationResult result =
        spans != nullptr ? spans->time("fabric.validate_block", validate)
                         : validate();
    replay.txs += block.tx_count();
    replay.valid += result.valid_tx_count;
    replay.results.push_back(std::move(result));
  }
  replay.stats = backend->stats();
  return replay;
}

std::string first_divergence(
    const std::vector<fabric::BlockValidationResult>& expected,
    const std::vector<fabric::BlockValidationResult>& actual) {
  if (expected.size() != actual.size())
    return "replayed " + std::to_string(actual.size()) + " blocks, expected " +
           std::to_string(expected.size());
  for (std::size_t b = 0; b < expected.size(); ++b) {
    if (expected[b].flags != actual[b].flags)
      return "flags diverge at block " + std::to_string(b);
    if (expected[b].commit_hash != actual[b].commit_hash)
      return "commit hash diverges at block " + std::to_string(b) +
             ": expected " +
             hex_encode(crypto::digest_view(expected[b].commit_hash)) +
             ", got " + hex_encode(crypto::digest_view(actual[b].commit_hash));
  }
  return "";
}

std::string unexpected_flags(
    const std::vector<fabric::BlockValidationResult>& results) {
  for (std::size_t b = 0; b < results.size(); ++b) {
    if (!results[b].block_valid)
      return "block " + std::to_string(b) + " failed block verification";
    for (std::size_t i = 0; i < results[b].flags.size(); ++i) {
      const fabric::TxValidationCode flag = results[b].flags[i];
      if (flag != fabric::TxValidationCode::kValid &&
          flag != fabric::TxValidationCode::kMvccReadConflict)
        return "block " + std::to_string(b) + " tx " + std::to_string(i) +
               " flagged " + fabric::tx_validation_code_name(flag) +
               " in a stream without injected faults";
    }
  }
  return "";
}

std::string forged_signature_caught(
    const fabric::Block& first, const fabric::Identity& orderer,
    const fabric::Msp& msp,
    const std::map<std::string, fabric::EndorsementPolicy>& policies) {
  if (first.header.number != 0 || first.envelopes.empty())
    return "no block 0 to forge a signature in";
  const std::size_t target = first.envelopes.size() / 2;
  Bytes envelope = first.envelopes[target];
  const auto tx = fabric::parse_envelope(envelope);
  if (!tx || tx->signature.empty()) return "cannot parse the target envelope";
  // The last DER byte lies inside s: the signature still decodes but no
  // longer verifies.
  const auto at = std::search(envelope.begin(), envelope.end(),
                              tx->signature.begin(), tx->signature.end());
  if (at == envelope.end()) return "creator signature not found in envelope";
  *(at + static_cast<std::ptrdiff_t>(tx->signature.size() - 1)) ^= 0x01;

  fabric::Orderer cutter(orderer, {.max_tx_per_block = first.tx_count()});
  std::optional<fabric::Block> forged;
  for (std::size_t i = 0; i < first.tx_count(); ++i)
    forged = cutter.submit(i == target ? envelope : first.envelopes[i]);
  if (!forged) return "re-cut produced no block";
  fabric::Ledger ledger;
  fabric::StateDb state;
  const Replay replay =
      replay_blocks({*forged}, msp, policies, ledger, state, nullptr);
  const fabric::BlockValidationResult& result = replay.results.front();
  if (!result.block_valid) return "the re-cut block failed block verification";
  if (result.flags[target] != fabric::TxValidationCode::kBadCreatorSignature)
    return std::string("a flipped creator signature was flagged ") +
           fabric::tx_validation_code_name(result.flags[target]);
  return "";
}

std::vector<fabric::Block> replay_harness(workload::NetworkOptions options,
                                          int txs, Spans& spans) {
  options.durability = {};
  workload::FabricNetworkHarness harness(std::move(options));
  std::vector<fabric::Block> committed;
  auto commit = [&](const fabric::Block& block) {
    spans.time("workload.commit_block",
               [&] { harness.commit_block(block); });
    committed.push_back(block);
  };
  for (int i = 0; i < txs; ++i) {
    const workload::TxDraft draft =
        spans.time("workload.prepare_tx", [&] { return harness.prepare_tx(); });
    Bytes envelope = spans.time("workload.sign_envelope",
                                [&] { return harness.sign_envelope(draft); });
    if (auto block = harness.submit_envelope(std::move(envelope)))
      commit(*block);
  }
  if (auto block = harness.flush_block()) commit(*block);
  return committed;
}

void replay_chain_layers(const fabric::Ledger& ledger,
                         const fabric::StateDb& state, const std::string& dir,
                         std::uint64_t seed, Spans& spans) {
  const std::uint64_t height = ledger.height();
  if (height == 0 || ledger.base_height() != 0)
    throw std::invalid_argument("chain replay needs a full, non-empty chain");

  // --- wire: marshal, unmarshal, envelope parse; sha256 + crc32 ----------
  std::vector<Bytes> marshaled;
  std::vector<std::vector<fabric::ParsedTransaction>> parsed(height);
  std::vector<bool> fully_parsed(height, true);
  for (std::uint64_t b = 0; b < height; ++b) {
    const fabric::Block& block = ledger.at(b).block;
    marshaled.push_back(spans.time("wire.block_marshal",
                                   [&] { return block.marshal(); }));
    const auto decoded = spans.time("wire.block_unmarshal", [&] {
      return fabric::Block::unmarshal(marshaled.back());
    });
    if (!decoded || decoded->envelopes != block.envelopes)
      throw std::runtime_error("block " + std::to_string(b) +
                               " does not survive marshal/unmarshal");
    spans.time("wire.envelope_parse", [&] {
      for (const Bytes& envelope : block.envelopes) {
        auto tx = fabric::parse_envelope(envelope);
        if (tx)
          parsed[b].push_back(std::move(*tx));
        else
          fully_parsed[b] = false;
      }
    }, static_cast<double>(block.tx_count()));
  }
  for (const Bytes& bytes : marshaled) {
    const auto ops = static_cast<double>(bytes.size());
    g_sink = g_sink + spans.time("crypto.sha256", [&] {
      return crypto::sha256(bytes)[0];
    }, ops);
    g_sink = g_sink + spans.time("common.crc32", [&] {
      return crc32(bytes);
    }, ops);
  }

  // --- crypto: sign the chain's payload digests, verify its creators -----
  std::vector<crypto::Digest> digests;
  std::vector<std::pair<crypto::PublicKey, crypto::Signature>> checks;
  std::vector<crypto::Digest> checked_digests;
  for (std::uint64_t b = 0; b < height && digests.size() < kSignatures; ++b)
    for (const fabric::ParsedTransaction& tx : parsed[b]) {
      if (digests.size() == kSignatures) break;
      const crypto::Digest digest = crypto::sha256(tx.payload_bytes);
      digests.push_back(digest);
      if (const auto sig = crypto::der_decode_signature(tx.signature)) {
        checks.emplace_back(tx.creator.public_key, *sig);
        checked_digests.push_back(digest);
      }
    }
  replay_crypto(digests, checks, checked_digests, seed, spans);

  // --- fabric: commit schedule and batch commit per block ----------------
  fabric::StateDb scratch;
  for (std::uint64_t b = 0; b < height; ++b) {
    if (!fully_parsed[b]) continue;
    const fabric::Block& block = ledger.at(b).block;
    std::vector<fabric::TxValidationCode> flags;
    for (const std::uint8_t flag : block.metadata.tx_flags)
      flags.push_back(static_cast<fabric::TxValidationCode>(flag));
    const auto schedule = spans.time("fabric.mvcc_schedule", [&] {
      return fabric::build_commit_schedule(parsed[b], flags);
    });
    g_sink = g_sink + schedule.scheduled_txs;
    fabric::StateDb::WriteBatch batch = scratch.make_batch();
    for (std::size_t i = 0; i < parsed[b].size(); ++i) {
      if (flags[i] != fabric::TxValidationCode::kValid) continue;
      const fabric::Version version{b, static_cast<std::uint32_t>(i)};
      for (const fabric::KVWrite& write : parsed[b][i].rwset.writes)
        batch.add(fabric::StateDb::namespaced(parsed[b][i].chaincode_id,
                                              write.key),
                  write.value, version);
    }
    spans.time("fabric.statedb_commit",
               [&] { scratch.commit_batch(std::move(batch)); });
  }

  // --- storage: append, snapshot, scan, replay ----------------------------
  const std::string log_path = dir + "/layers.log";
  const std::string snap_path = dir + "/layers.snap";
  std::filesystem::remove(log_path);
  {
    fabric::FileBlockStore store(log_path);
    for (std::uint64_t b = 0; b < height; ++b)
      spans.time("fabric.append", [&] { store.append(ledger.at(b)); });
    store.sync();
  }
  const fabric::StateSnapshotMeta meta{
      height, crypto::digest_bytes(ledger.last_commit_hash()),
      crypto::digest_bytes(ledger.last().block.block_hash())};
  const auto log_bytes =
      static_cast<double>(std::filesystem::file_size(log_path));
  for (int i = 0; i < kStorageRepeats; ++i) {
    if (!spans.time("fabric.snapshot",
                    [&] { return state.snapshot(snap_path, meta); }))
      throw std::runtime_error("snapshot to " + snap_path + " failed");
    const auto chain = spans.time("fabric.recover_scan", [&] {
      return fabric::FileBlockStore::recover(log_path);
    }, log_bytes);
    if (chain.blocks.size() != height)
      throw std::runtime_error("store scan lost blocks");
    fabric::Ledger replayed;
    fabric::StateDb replayed_state;
    if (!spans.time("fabric.replay_chain", [&] {
          return fabric::replay_chain(chain, replayed, &replayed_state);
        }) ||
        replayed.last_commit_hash() != ledger.last_commit_hash())
      throw std::runtime_error("chain replay diverged from the committed chain");
  }
}

void fill_replay_layers(const Spans& spans, const Replay& replay,
                        double signs, double verifies, double untraced_wall_s,
                        Layers& out) {
  auto us = [&](const char* name) { return spans.median_per_op(name) * 1e6; };
  auto ms = [&](const char* name) { return spans.median_per_op(name) * 1e3; };
  auto mb_per_s = [&](const char* name) {
    const double seconds = spans.total(name);
    return seconds > 0 ? spans.total_ops(name) / seconds / 1e6 : 0.0;
  };
  const double sign_s = spans.median_per_op("crypto.sign");
  const double verify_s = spans.median_per_op("crypto.verify");
  out.set("crypto.sign_us", sign_s * 1e6);
  out.set("crypto.verify_us", verify_s * 1e6);
  out.set("crypto.field_mul_ns", spans.median_per_op("crypto.field_mul") * 1e9);
  out.set("crypto.field_inv_us", us("crypto.field_inv"));
  out.set("crypto.scalar_inv_us", us("crypto.scalar_inv"));
  out.set("crypto.share",
          untraced_wall_s > 0
              ? (signs * sign_s + verifies * verify_s) / untraced_wall_s
              : 0.0);
  out.set("crypto.sha256_mb_per_s", mb_per_s("crypto.sha256"));
  out.set("common.crc32_mb_per_s", mb_per_s("common.crc32"));
  out.set("wire.block_unmarshal_us", us("wire.block_unmarshal"));
  out.set("wire.envelope_parse_us", us("wire.envelope_parse"));
  out.set("wire.block_marshal_us", us("wire.block_marshal"));
  const double scan_s_per_byte = spans.median_per_op("fabric.recover_scan");
  out.set("fabric.recover_scan_mb_per_s",
          scan_s_per_byte > 0 ? 1.0 / scan_s_per_byte / 1e6 : 0.0);
  out.set("fabric.replay_chain_ms", ms("fabric.replay_chain"));
  out.set("fabric.validate_block_ms", ms("fabric.validate_block"));
  out.set("fabric.mvcc_schedule_us", us("fabric.mvcc_schedule"));
  out.set("fabric.statedb_commit_us", us("fabric.statedb_commit"));
  if (replay.txs > 0) {
    out.set("fabric.db_ops_per_tx",
            static_cast<double>(replay.stats.db_reads + replay.stats.db_writes) /
                static_cast<double>(replay.txs));
    out.set("fabric.valid_tx_ratio", static_cast<double>(replay.valid) /
                                         static_cast<double>(replay.txs));
  }
  out.set("fabric.append_us", us("fabric.append"));
  out.set("fabric.snapshot_ms", ms("fabric.snapshot"));
  out.set("workload.prepare_tx_us", us("workload.prepare_tx"));
  out.set("workload.sign_envelope_us", us("workload.sign_envelope"));
  out.set("workload.commit_block_ms", ms("workload.commit_block"));
}

}  // namespace perfbench
