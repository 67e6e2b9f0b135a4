// Per-layer replays shared by the workloads: each times calls into one
// module's public functions on the workload's own inputs (its committed
// blocks, their signatures, and drafts from a same-seed harness) and
// records them as spans. fill_replay_layers() turns the spans into the
// per-layer metrics.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fabric/ledger.hpp"
#include "fabric/policy.hpp"
#include "fabric/statedb.hpp"
#include "fabric/validator.hpp"
#include "workload/network_harness.hpp"

namespace perfbench {

namespace fabric = bm::fabric;
namespace workload = bm::workload;

/// Outcome of replaying blocks through an independent software backend.
struct Replay {
  std::vector<fabric::BlockValidationResult> results;
  fabric::ValidationStats stats;
  std::uint64_t txs = 0;
  std::uint64_t valid = 0;
};

/// Validate and commit `blocks` in order through a fresh sequential software
/// backend into `ledger`/`state` (both empty). With `spans`, each call is a
/// "fabric.validate_block" span.
Replay replay_blocks(const std::vector<fabric::Block>& blocks,
                     const fabric::Msp& msp,
                     const std::map<std::string, fabric::EndorsementPolicy>&
                         policies,
                     fabric::Ledger& ledger, fabric::StateDb& state,
                     Spans* spans);

/// First block number at which two replays disagree on flags or commit
/// hash, or "" when they agree block for block.
std::string first_divergence(
    const std::vector<fabric::BlockValidationResult>& expected,
    const std::vector<fabric::BlockValidationResult>& actual);

/// "" when every block passed block verification and every transaction is
/// valid or lost an MVCC read conflict. The workloads inject no bad
/// signatures or missing endorsements, so any other flag is a fault in the
/// program (its signing, verification or policy evaluation).
std::string unexpected_flags(
    const std::vector<fabric::BlockValidationResult>& results);

/// Self-test of the signature path: re-cut `first` (a chain's block 0) with
/// one byte of one creator signature flipped, signed by `orderer` so the
/// block itself still verifies, and replay it from empty state. Returns ""
/// when the replay flags exactly that transaction kBadCreatorSignature.
std::string forged_signature_caught(
    const fabric::Block& first, const fabric::Identity& orderer,
    const fabric::Msp& msp,
    const std::map<std::string, fabric::EndorsementPolicy>& policies);

/// A fresh harness with `options` (seeded like the workload) prepares,
/// signs and orders `txs` transactions, then reference-commits the cut
/// blocks: "workload.prepare_tx", "workload.sign_envelope" and
/// "workload.commit_block" spans. Returns the committed blocks.
std::vector<fabric::Block> replay_harness(workload::NetworkOptions options,
                                          int txs, Spans& spans);

/// Crypto, wire and storage replays over a committed chain: signing and
/// verifying its transactions' signatures, field and scalar arithmetic,
/// SHA-256 and CRC-32 over its bytes, block (un)marshal and envelope parse,
/// schedule building and batch commit per block, and a block-store append,
/// StateDb snapshot, store scan and chain replay in `dir`.
void replay_chain_layers(const fabric::Ledger& ledger,
                         const fabric::StateDb& state, const std::string& dir,
                         std::uint64_t seed, Spans& spans);

/// Per-layer metrics derived from the spans above plus the replay counters.
/// `signs`/`verifies` are the ECDSA calls one untraced repetition makes, for
/// crypto.share.
void fill_replay_layers(const Spans& spans, const Replay& replay,
                        double signs, double verifies, double untraced_wall_s,
                        Layers& out);

}  // namespace perfbench
