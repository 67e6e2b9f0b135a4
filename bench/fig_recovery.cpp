// Recovery time vs chain length, with and without StateDb snapshots
// (docs/DURABILITY.md).
//
// One durability-enabled harness grows a single on-disk chain through a
// series of lengths, cutting snapshots on schedule. At each length the
// bench measures, on the same log:
//
//   full — scan every record (CRC + commit-hash chain) and replay world
//          state from genesis: FileBlockStore::recover + replay_chain;
//   snap — DurableLedger::recover: restore the newest snapshot, skip the
//          already-covered prefix with framing-only checks and replay only
//          the records past it.
//
// Both recoveries must reproduce the builder's reference chain byte for
// byte (fabric::chain_divergence, the §4.1 oracle) — that equality, at
// every length and on every repetition, is the exit code. The full run's
// acceptance bound is snap beating full by >= 5x at the 10k-block point;
// --quick (the CI smoke) keeps the equality oracle but drops the timing
// bound, which would be noise at smoke sizes.
//
// Emits one JSON row per length (stdout, and --out FILE when given).
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fabric/durability.hpp"
#include "workload/network_harness.hpp"

namespace {

using namespace bm;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Row {
  std::uint64_t blocks = 0;
  std::uint64_t log_bytes = 0;
  std::uint64_t snapshot_height = 0;
  std::uint64_t snap_replayed = 0;
  double full_ms = 0;
  double snap_ms = 0;
  bool tails_ok = false;  ///< both paths reproduced the reference chain
  double speedup() const { return snap_ms > 0 ? full_ms / snap_ms : 0; }
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    else if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
  }

  const std::vector<std::uint64_t> lengths =
      quick ? std::vector<std::uint64_t>{200, 1000}
            : std::vector<std::uint64_t>{1000, 2500, 5000, 10000};
  const std::uint64_t interval = quick ? 100 : 500;
  const int reps = 3;  // best-of per path: recovery must only get faster

  fabric::DurabilityConfig durability;
  durability.ledger_path =
      (std::filesystem::temp_directory_path() / "bm_fig_recovery.log")
          .string();
  durability.snapshot_interval = interval;
  durability.keep_snapshots = 2;

  // Clean slate: a stale log would make the builder's appends mis-chain.
  std::error_code ec;
  std::filesystem::remove(durability.ledger_path, ec);
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(durability.ledger_path).parent_path(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("bm_fig_recovery.log.snap.", 0) == 0)
      std::filesystem::remove(entry.path(), ec);
  }

  workload::NetworkOptions net;
  net.seed = 7;
  net.block_size = 2;  // short blocks: chain length, not block weight
  net.durability = durability;

  bench::title("recovery time vs chain length (docs/DURABILITY.md)");
  std::printf("%8s %12s %12s %10s %10s %8s %s\n", "blocks", "full_ms",
              "snap_ms", "speedup", "snap_at", "replayed", "tails");

  workload::FabricNetworkHarness harness(net);
  std::vector<Row> rows;
  bool ok = true;

  for (const std::uint64_t length : lengths) {
    while (harness.reference_ledger().height() < length) harness.next_block();
    harness.durable()->sync();
    const fabric::Ledger& want = harness.reference_ledger();

    Row row;
    row.blocks = length;
    row.log_bytes = std::filesystem::file_size(durability.ledger_path);
    row.tails_ok = true;

    for (int rep = 0; rep < reps; ++rep) {
      // Full replay: every record CRC-checked, hash-chained and applied.
      {
        fabric::Ledger ledger;
        fabric::StateDb state;
        const auto start = std::chrono::steady_clock::now();
        const auto chain = fabric::FileBlockStore::recover(
            durability.ledger_path);
        const bool replayed = fabric::replay_chain(chain, ledger, &state);
        const double elapsed_ms = seconds_since(start) * 1e3;
        if (rep == 0 || elapsed_ms < row.full_ms) row.full_ms = elapsed_ms;
        row.tails_ok = row.tails_ok && replayed &&
                       ledger.height() == length &&
                       fabric::chain_divergence(ledger, want).empty();
      }
      // Snapshot recovery: restore + skip the covered prefix + replay rest.
      {
        fabric::Ledger ledger;
        fabric::StateDb state;
        const auto result =
            fabric::DurableLedger::recover(durability, ledger, state);
        const double elapsed_ms = result.duration_s * 1e3;
        if (rep == 0 || elapsed_ms < row.snap_ms) row.snap_ms = elapsed_ms;
        row.snapshot_height = result.snapshot_height;
        row.snap_replayed = result.blocks_replayed;
        row.tails_ok = row.tails_ok && result.ok && result.used_snapshot &&
                       ledger.height() == length &&
                       fabric::chain_divergence(ledger, want).empty();
      }
    }

    std::printf("%8llu %12.2f %12.2f %9.1fx %10llu %8llu %s\n",
                static_cast<unsigned long long>(row.blocks), row.full_ms,
                row.snap_ms, row.speedup(),
                static_cast<unsigned long long>(row.snapshot_height),
                static_cast<unsigned long long>(row.snap_replayed),
                row.tails_ok ? "PASS" : "FAIL");
    ok = ok && row.tails_ok;
    rows.push_back(row);
  }

  // Acceptance: snapshots must pay for themselves where replay is long.
  const double top_speedup = rows.back().speedup();
  const bool bound_applies = !quick && rows.back().blocks >= 10000;
  if (bound_applies) {
    ok = ok && top_speedup >= 5.0;
    std::printf("snapshot speedup at %llu blocks: %.1fx (bound >= 5.0x): %s\n",
                static_cast<unsigned long long>(rows.back().blocks),
                top_speedup, top_speedup >= 5.0 ? "PASS" : "FAIL");
  }

  std::ostringstream json;
  json << "{\n"
       << bench::artifact_meta(
              "fig_recovery", net.seed,
              "{\"block_size\": " + std::to_string(net.block_size) +
                  ", \"snapshot_interval\": " + std::to_string(interval) +
                  ", \"quick\": " + (quick ? "true" : "false") + "}")
       << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "    {\"blocks\": %llu, \"log_bytes\": %llu, "
                  "\"full_ms\": %.3f, \"snap_ms\": %.3f, \"speedup\": %.2f, "
                  "\"snapshot_height\": %llu, \"blocks_replayed\": %llu, "
                  "\"tails_ok\": %s}%s\n",
                  static_cast<unsigned long long>(row.blocks),
                  static_cast<unsigned long long>(row.log_bytes), row.full_ms,
                  row.snap_ms, row.speedup(),
                  static_cast<unsigned long long>(row.snapshot_height),
                  static_cast<unsigned long long>(row.snap_replayed),
                  row.tails_ok ? "true" : "false",
                  i + 1 < rows.size() ? "," : "");
    json << buf;
  }
  json << "  ],\n  \"speedup_bound\": " << (bound_applies ? "5.0" : "null")
       << ",\n  \"pass\": " << (ok ? "true" : "false") << "\n}\n";

  std::printf("\n%s", json.str().c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    out << json.str();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return ok ? 0 : 1;
}
