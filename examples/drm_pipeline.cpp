// Digital rights management (drm) on the full functional pipeline: create /
// update / transfer digital assets through real endorsement, ordering, the
// BMac protocol and the hardware validation pipeline — with fault injection
// to show every validation outcome, and the history database tracking which
// block/transaction touched each asset.
//
//   $ ./drm_pipeline
#include <cstdio>
#include <map>
#include <string>

#include "bmac/peer.hpp"
#include "fabric/validator.hpp"
#include "workload/caliper.hpp"
#include "workload/network_harness.hpp"

int main() {
  using namespace bm;

  std::printf("== drm asset pipeline ==\n\n");

  workload::NetworkOptions options;
  options.orgs = 2;
  options.chaincode = workload::ChaincodeKind::kDrm;
  options.policy_text = "Org1 & Org2";
  options.block_size = 12;
  options.seed = 2024;
  // Inject realistic faults: stale reads (concurrent clients), a rogue
  // client, under-endorsed transactions.
  options.bad_signature_rate = 0.1;
  options.missing_endorsement_rate = 0.1;
  options.conflicting_read_rate = 0.15;
  workload::FabricNetworkHarness network(options);

  sim::Simulation sim;
  bmac::HwConfig hw;
  hw.tx_validators = 4;
  bmac::BmacPeer peer(sim, network.msp(), hw, network.policies());
  peer.start();
  bmac::ProtocolSender protocol(network.msp());

  fabric::StateDb sw_state;
  fabric::Ledger sw_ledger;
  fabric::HistoryDb history;
  fabric::SoftwareValidator sw_validator(network.msp(), network.policies());

  std::map<fabric::TxValidationCode, int> outcomes;
  for (int b = 0; b < 6; ++b) {
    const fabric::Block block = network.next_block();
    const auto result =
        sw_validator.validate_and_commit(block, sw_state, sw_ledger, &history);
    for (const auto flag : result.flags) outcomes[flag]++;

    for (const auto& packet : protocol.send(block).packets)
      peer.deliver_packet(packet);
    peer.deliver_block(block);
    sim.run();
  }

  std::printf("validation outcomes over %llu transactions:\n",
              static_cast<unsigned long long>(6 * options.block_size));
  for (const auto& [code, count] : outcomes)
    std::printf("  %-28s %d\n", fabric::tx_validation_code_name(code), count);

  // Cross-check the hardware peer committed the same chain: every flag and
  // every commit hash.
  const std::string divergence =
      peer.ledger().height() != sw_ledger.height()
          ? "bmac height " + std::to_string(peer.ledger().height()) +
                " != software " + std::to_string(sw_ledger.height())
          : fabric::chain_divergence(peer.ledger(), sw_ledger);
  const bool match = divergence.empty();
  std::printf("\nhw/sw flag agreement across %llu blocks: %s%s%s\n",
              static_cast<unsigned long long>(sw_ledger.height()),
              match ? "PASS" : "FAIL", match ? "" : ": ",
              divergence.c_str());

  // The history database (validation step 5): who wrote asset_7?
  std::printf("\nhistory of drm assets (key -> writers):\n");
  int shown = 0;
  for (int a = 0; a < 2000 && shown < 5; ++a) {
    const std::string key = fabric::StateDb::namespaced(
        "drm", "asset_" + std::to_string(a));
    if (const auto* writers = history.history(key)) {
      std::printf("  asset_%-4d written by", a);
      for (const auto& version : *writers)
        std::printf(" (block %llu, tx %u)",
                    static_cast<unsigned long long>(version.block_num),
                    version.tx_num);
      std::printf("\n");
      ++shown;
    }
  }

  // Caliper-style block-level report from the hardware monitor's stats
  // (the paper reads these from reg_map instead of software timestamps).
  workload::CaliperReport report("bmac-peer(drm)");
  for (const auto& result : peer.results()) {
    workload::BlockObservation obs;
    obs.block_num = result.block_num;
    obs.tx_count = static_cast<std::uint32_t>(result.flags.size());
    for (const auto flag : result.flags)
      if (flag == fabric::TxValidationCode::kValid) ++obs.valid_tx_count;
    obs.received_at = result.stats.received_at;
    obs.validated_at = result.stats.validate_end;
    obs.committed_at = result.stats.validate_end;  // ledger commit excluded
    report.record(obs);
  }
  std::printf("\n%s", report.render().c_str());

  std::printf("\nfinal state: %zu assets in the world state, ledger height "
              "%llu, %llu bytes on disk\n",
              sw_state.size(),
              static_cast<unsigned long long>(sw_ledger.height()),
              static_cast<unsigned long long>(sw_ledger.bytes_written()));
  return match ? 0 : 1;
}
