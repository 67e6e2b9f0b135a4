#include "fabric/ledger.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/hex.hpp"

namespace bm::fabric {

crypto::Digest Ledger::append(Block block) {
  if (block.header.number != height())
    throw std::invalid_argument("ledger: non-sequential block number");
  if (height() > 0) {
    if (!equal(block.header.prev_hash, crypto::digest_view(last_header_hash_)))
      throw std::invalid_argument("ledger: prev_hash mismatch");
  }
  if (block.metadata.tx_flags.size() != block.envelopes.size())
    throw std::invalid_argument("ledger: tx_flags not filled in");

  const Bytes marshaled = block.marshal();
  bytes_written_ += marshaled.size();

  crypto::Sha256 h;
  h.update(crypto::digest_view(last_commit_hash_));
  h.update(marshaled);
  const crypto::Digest commit_hash = h.finish();

  last_header_hash_ = block.block_hash();
  blocks_.push_back(CommittedBlock{std::move(block), commit_hash});
  last_commit_hash_ = commit_hash;
  return commit_hash;
}

void Ledger::open_at(std::uint64_t height,
                     const crypto::Digest& last_commit_hash,
                     const crypto::Digest& last_header_hash) {
  if (base_height_ != 0 || !blocks_.empty())
    throw std::logic_error("ledger: open_at on a non-empty ledger");
  base_height_ = height;
  last_commit_hash_ = last_commit_hash;
  last_header_hash_ = last_header_hash;
}

const CommittedBlock& Ledger::at(std::uint64_t index) const {
  if (index < base_height_)
    throw std::out_of_range("ledger: block below the recovered base height");
  return blocks_.at(index - base_height_);
}

const CommittedBlock& Ledger::last() const {
  if (blocks_.empty()) throw std::out_of_range("ledger is empty");
  return blocks_.back();
}

namespace {

std::string hex_of(const crypto::Digest& digest) {
  return hex_encode(crypto::digest_view(digest));
}

/// Why two flagged copies of one block differ: the first tx whose flag
/// differs, else bytes outside the flags.
std::string flag_difference(const Block& mine, const Block& want) {
  const auto& a = mine.metadata.tx_flags;
  const auto& b = want.metadata.tx_flags;
  if (a.size() != b.size())
    return std::to_string(a.size()) + " txs != reference " +
           std::to_string(b.size());
  const auto diff = std::mismatch(a.begin(), a.end(), b.begin());
  if (diff.first == a.end()) return "same flags, different bytes";
  return "tx " + std::to_string(diff.first - a.begin()) + " flag " +
         std::to_string(*diff.first) + " != reference " +
         std::to_string(*diff.second);
}

}  // namespace

std::string chain_divergence(const Ledger& chain, const Ledger& reference,
                             std::uint64_t from) {
  const std::uint64_t height = chain.height();
  if (height > reference.height())
    return "chain height " + std::to_string(height) +
           " exceeds reference height " + std::to_string(reference.height());
  for (std::uint64_t h = std::max(from, chain.base_height()); h < height;
       ++h) {
    const CommittedBlock& mine = chain.at(h);
    const CommittedBlock& want = reference.at(h);
    if (mine.commit_hash != want.commit_hash)
      return "height " + std::to_string(h) + ": " +
             flag_difference(mine.block, want.block) + "; commit hash " +
             hex_of(mine.commit_hash) + " != reference " +
             hex_of(want.commit_hash);
  }
  crypto::Digest want{};  // the empty chain's
  if (height == reference.height())
    want = reference.last_commit_hash();
  else if (height > 0)
    want = reference.at(height - 1).commit_hash;
  if (chain.last_commit_hash() != want)
    return "tail commit hash at height " + std::to_string(height) + " " +
           hex_of(chain.last_commit_hash()) + " != reference " + hex_of(want);
  return "";
}

}  // namespace bm::fabric
