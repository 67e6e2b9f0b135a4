// Append-only block ledger with a commit-hash chain.
//
// Step 4 of the validation pipeline writes the whole block — including the
// per-transaction validity flags — to the ledger together with a commit
// hash. The commit hash chains H(prev_commit_hash || marshaled block), so
// two peers that committed the same blocks with the same flags agree on it;
// the paper uses exactly this to check that the BMac peer never diverges
// from the software-only peer (§4.1).
#pragma once

#include <string>

#include "fabric/block.hpp"

namespace bm::fabric {

struct CommittedBlock {
  Block block;                ///< with metadata.tx_flags filled in
  crypto::Digest commit_hash;
};

class Ledger {
 public:
  /// Append a validated block. The block's number must equal height() and
  /// its prev_hash must match the previous header hash (genesis excepted).
  /// Returns the commit hash.
  crypto::Digest append(Block block);

  /// Seed an *empty* ledger at a recovered chain position (StateDb snapshot
  /// + replay-from-height recovery): the next append must carry block number
  /// `height` and chain onto `last_commit_hash` / `last_header_hash`.
  /// Blocks below `height` are not held — at() on them throws.
  void open_at(std::uint64_t height, const crypto::Digest& last_commit_hash,
               const crypto::Digest& last_header_hash);

  std::uint64_t height() const { return base_height_ + blocks_.size(); }
  /// Lowest height this ledger holds a block for (0 unless open_at() was
  /// used).
  std::uint64_t base_height() const { return base_height_; }
  const CommittedBlock& at(std::uint64_t index) const;
  const CommittedBlock& last() const;
  const crypto::Digest& last_commit_hash() const { return last_commit_hash_; }

  /// Total marshaled bytes appended (disk-footprint proxy).
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  std::vector<CommittedBlock> blocks_;
  std::uint64_t base_height_ = 0;      // first held block's number
  crypto::Digest last_commit_hash_{};  // zero for the empty chain
  crypto::Digest last_header_hash_{};  // block_hash of the chain tail
  std::uint64_t bytes_written_ = 0;
};

/// The §4.1 check, the one chain-equivalence oracle: "" when `chain` is
/// byte-identical to a prefix of `reference`, otherwise the first
/// divergence — its height, the first tx whose flag differs (or "same
/// flags, different bytes") and both commit hashes in hex. Every block
/// `chain` holds at heights [max(from, base_height()), height()) is
/// compared, then its tail commit hash, which covers a snapshot prefix it
/// does not hold block by block. A chain taller than `reference` diverges;
/// a shorter one is a prefix, so callers that need equal heights check them.
/// `reference` must hold the heights compared (at() throws otherwise).
std::string chain_divergence(const Ledger& chain, const Ledger& reference,
                             std::uint64_t from = 0);

}  // namespace bm::fabric
