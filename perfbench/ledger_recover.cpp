// ledger_recover: set-up grows a seeded durable chain with snapshots; the
// timed region repeats full recovery (FileBlockStore::recover +
// replay_chain) and snapshot-ladder recovery (DurableLedger::recover) of
// that log, each checked against the reference tail commit hash. These are
// the durability reads beside cluster_failover's writes: CRC framing, wire
// decode, StateDb apply and SHA-256 chaining, with no ECDSA.
//
// An operation is one recovery. tx_per_s counts the transactions full
// recovery replays per wall-second.
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "fabric/block_store.hpp"
#include "fabric/durability.hpp"
#include "fabric/validator_backend.hpp"
#include "layers.hpp"

namespace perfbench {

using namespace bm;

namespace {

constexpr int kChainBlocks = 16;
constexpr std::size_t kBlockSize = 50;
constexpr std::uint64_t kSnapshotInterval = 5;
constexpr int kRecoveriesPerRun = 8;

struct Recovered {
  std::uint64_t height = 0;
  crypto::Digest tail{};
  std::uint64_t txs = 0;
};

Recovered full_recovery(const std::string& path, fabric::Ledger& ledger,
                        fabric::StateDb& state) {
  const auto chain = fabric::FileBlockStore::recover(path);
  Recovered out;
  if (!fabric::replay_chain(chain, ledger, &state)) return out;
  out.height = ledger.height();
  out.tail = ledger.last_commit_hash();
  for (const fabric::CommittedBlock& committed : chain.blocks)
    out.txs += committed.block.tx_count();
  return out;
}

Recovered snapshot_recovery(const std::string& path) {
  fabric::DurabilityConfig config;
  config.ledger_path = path;
  fabric::Ledger ledger;
  fabric::StateDb state;
  const fabric::RecoveryResult result =
      fabric::DurableLedger::recover(config, ledger, state);
  Recovered out;
  if (!result.ok || !result.used_snapshot) return out;
  out.height = ledger.height();
  out.tail = ledger.last_commit_hash();
  return out;
}

class LedgerRecover final : public Workload {
 public:
  explicit LedgerRecover(const Context& ctx)
      : ctx_(ctx), dir_(ctx.tmp + "/ledger"), log_(dir_ + "/chain.log") {
    options_.orgs = 2;
    options_.seed = ctx.seed;
    options_.block_size = kBlockSize;
    options_.backend_factory =
        fabric::software_backend_factory({.parallelism = 1});
  }

  void setup() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    workload::NetworkOptions options = options_;
    options.durability.ledger_path = log_;
    options.durability.snapshot_interval = kSnapshotInterval;
    workload::FabricNetworkHarness harness(options);
    for (int b = 0; b < kChainBlocks; ++b) harness.next_block();
    harness.durable()->sync();
    height_ = harness.reference_ledger().height();
    tail_ = harness.reference_ledger().last_commit_hash();
  }

  Sample run(bool) override {
    Sample sample;
    std::uint64_t txs = 0, failed_full = 0, failed_snapshot = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kRecoveriesPerRun; ++i) {
      fabric::Ledger ledger;
      fabric::StateDb state;
      const Recovered r = full_recovery(log_, ledger, state);
      txs += r.txs;
      failed_full += matches(r) ? 0 : 1;
    }
    sample.wall_s = seconds_between(t0, Clock::now());
    for (int i = 0; i < kRecoveriesPerRun; ++i) {
      const auto s0 = Clock::now();
      const Recovered r = snapshot_recovery(log_);
      snapshot_ms_.push_back(seconds_between(s0, Clock::now()) * 1e3);
      failed_snapshot += matches(r) ? 0 : 1;
    }
    failed_full_ += failed_full;
    failed_snapshot_ += failed_snapshot;
    sample.tx = static_cast<double>(txs);
    sample.attempted = 2 * kRecoveriesPerRun;
    sample.failed = failed_full + failed_snapshot;
    sample.sim = {{"txs_replayed", static_cast<double>(txs)},
                  {"height", static_cast<double>(height_)}};
    return sample;
  }

  std::string check(Spans*) override {
    if (failed_full_ > 0)
      return std::to_string(failed_full_) +
             " full recoveries missed the reference tail";
    if (failed_snapshot_ > 0)
      return std::to_string(failed_snapshot_) +
             " snapshot recoveries missed the reference tail";
    return "";
  }

  std::string self_test() override {
    // Copy the log and its snapshots, flip one byte inside the last record
    // of the copy, and require both recovery paths to miss the tail.
    const std::string corrupt_dir = dir_ + "/corrupt";
    const std::string corrupt_log = corrupt_dir + "/chain.log";
    std::filesystem::remove_all(corrupt_dir);
    std::filesystem::create_directories(corrupt_dir);
    for (const auto& entry : std::filesystem::directory_iterator(dir_))
      if (entry.is_regular_file())
        std::filesystem::copy_file(entry.path(),
                                   corrupt_dir + "/" +
                                       entry.path().filename().string());
    const auto offsets = fabric::FileBlockStore::recover(log_).record_offsets;
    if (offsets.size() < 2) return "log holds no records";
    const std::uint64_t at =
        (offsets[offsets.size() - 2] + offsets.back()) / 2;
    {
      std::fstream file(corrupt_log,
                        std::ios::in | std::ios::out | std::ios::binary);
      file.seekg(static_cast<std::streamoff>(at));
      const char byte = static_cast<char>(file.get() ^ 0x01);
      file.seekp(static_cast<std::streamoff>(at));
      file.put(byte);
    }
    fabric::Ledger ledger;
    fabric::StateDb state;
    if (matches(full_recovery(corrupt_log, ledger, state)))
      return "full recovery accepted a flipped byte";
    if (matches(snapshot_recovery(corrupt_log)))
      return "snapshot recovery accepted a flipped byte";
    std::filesystem::remove_all(corrupt_dir);
    return "";
  }

  void layers(Spans& spans, Layers& out, double untraced_wall_s) override {
    fabric::Ledger recovered;
    fabric::StateDb recovered_state;
    full_recovery(log_, recovered, recovered_state);
    std::vector<fabric::Block> blocks;
    for (std::uint64_t b = 0; b < recovered.height(); ++b)
      blocks.push_back(recovered.at(b).block);
    replay_harness(options_, 2 * static_cast<int>(kBlockSize), spans);
    const workload::FabricNetworkHarness reference(options_);
    fabric::Ledger ledger;
    fabric::StateDb state;
    const Replay replay = replay_blocks(blocks, reference.msp(),
                                       reference.policies(), ledger, state,
                                       &spans);
    replay_chain_layers(ledger, state, dir_, ctx_.seed, spans);
    fill_replay_layers(spans, replay, 0, 0, untraced_wall_s, out);
    out.set("snap_recover_ms", median(snapshot_ms_));
  }

 private:
  bool matches(const Recovered& r) const {
    return r.height == height_ && r.tail == tail_;
  }

  Context ctx_;
  std::string dir_;
  std::string log_;
  workload::NetworkOptions options_;
  std::uint64_t height_ = 0;
  crypto::Digest tail_{};
  std::vector<double> snapshot_ms_;
  std::uint64_t failed_full_ = 0;
  std::uint64_t failed_snapshot_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_ledger_recover(const Context& ctx) {
  return std::make_unique<LedgerRecover>(ctx);
}

}  // namespace perfbench
