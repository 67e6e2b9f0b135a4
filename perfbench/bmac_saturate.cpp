// bmac_saturate: the paper's standard spec through workload::run_hw_workload
// (smallbank, 2-of-2, 4 orgs, 150 tx per block, 8 tx_validators x 2
// engines), long enough for a multi-second run. Verification results are
// precomputed, so the host runs no ECDSA: host time is the sim event loop
// plus the bmac block_processor, policy circuits and kvstore. This is the
// contrast workload: a crypto change must not move it. Its sim throughput
// is the paper's Fig. 7 headline.
//
// The synthetic stream is fixed by the spec, so the seed changes nothing
// here. Set-up builds the spec and runs it for one block, which pays
// run_hw_workload's fixed costs (simulation, processor and kvstore
// construction). No fabric block, signature or harness is involved, so the
// crypto, wire, fabric and workload layers read 0. An operation is one
// block.
#include <stdexcept>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/synthetic.hpp"

namespace perfbench {

using namespace bm;

namespace {

constexpr int kBlocks = 1500;

class BmacSaturate final : public Workload {
 public:
  void setup() override {
    spec_ = workload::SyntheticSpec{};
    spec_.blocks = kBlocks;
    spec_.block_size = 150;
    spec_.ends_attached = 2;
    spec_.chaincode = "smallbank";
    spec_.policy_text = "2-outof-2 orgs";
    spec_.org_count = 4;
    spec_.reads_per_tx = 2.0;
    spec_.writes_per_tx = 2.0;
    spec_.hw.tx_validators = 8;
    spec_.hw.engines_per_vscc = 2;

    workload::SyntheticSpec one_block = spec_;
    one_block.blocks = 1;
    if (workload::run_hw_workload(one_block).total_txs !=
        static_cast<std::uint64_t>(spec_.block_size))
      throw std::runtime_error("bmac_saturate: one-block set-up run failed");
  }

  Sample run(bool traced) override {
    workload::SyntheticSpec spec = spec_;
    obs::Registry registry;
    obs::Tracer tracer;
    if (traced) {
      tracer.begin_process("bmac_saturate");
      spec.registry = &registry;
      spec.tracer = &tracer;
    }
    const auto t0 = Clock::now();
    const workload::HwRunResult result = workload::run_hw_workload(spec);
    Sample sample;
    sample.wall_s = seconds_between(t0, Clock::now());
    sample.tx = static_cast<double>(result.total_txs);
    sample.attempted = static_cast<std::uint64_t>(spec.blocks);
    sample.sim = {
        {"sim_tps", result.tps},
        {"sim_block_ms", result.block_latency_ms},
        {"tx_latency_us", result.tx_latency_us},
        {"total_txs", static_cast<double>(result.total_txs)},
        {"valid_txs", static_cast<double>(result.valid_txs)},
        {"ecdsa_executed", static_cast<double>(result.ecdsa_executed)},
        {"ecdsa_skipped", static_cast<double>(result.ecdsa_skipped)},
        {"db_host_accesses", static_cast<double>(result.db_host_accesses)},
        {"events", static_cast<double>(result.events_executed)},
    };
    result_ = result;
    if (traced) {
      const auto gauge = [&](const std::string& name) {
        const obs::Gauge* g = registry.find_gauge(name);
        return g != nullptr ? g->value() : 0.0;
      };
      utilization_block_verify_ = gauge("bmac_engine_utilization_block_verify");
      double sum = 0;
      for (int v = 0; v < spec.hw.tx_validators; ++v)
        sum += gauge("bmac_engine_utilization_v" + std::to_string(v));
      utilization_validators_ = sum / spec.hw.tx_validators;
    }
    return sample;
  }

  std::string check(Spans*) override {
    const auto expected =
        static_cast<std::uint64_t>(spec_.blocks) * spec_.block_size;
    if (result_.total_txs != expected)
      return "committed " + std::to_string(result_.total_txs) + " of " +
             std::to_string(expected) + " transactions";
    if (result_.valid_txs != expected)
      return std::to_string(expected - result_.valid_txs) +
             " transactions invalid in an all-valid stream";
    return "";
  }

  std::string self_test() override { return ""; }

  void layers(Spans&, Layers& out, double untraced_wall_s) override {
    const double events = static_cast<double>(result_.events_executed);
    out.set("sim.events", events);
    out.set("sim.ns_per_event", untraced_wall_s / events * 1e9);
    out.set("bmac.engine_utilization_block_verify", utilization_block_verify_);
    out.set("bmac.engine_utilization_validators", utilization_validators_);
    const double signatures =
        static_cast<double>(result_.ecdsa_executed + result_.ecdsa_skipped);
    out.set("bmac.ecdsa_skipped_ratio",
            signatures > 0
                ? static_cast<double>(result_.ecdsa_skipped) / signatures
                : 0.0);
    out.set("bmac.db_host_accesses",
            static_cast<double>(result_.db_host_accesses));
    out.set("sim_tps", result_.tps);
    out.set("sim_block_ms", result_.block_latency_ms);
  }

 private:
  workload::SyntheticSpec spec_;
  workload::HwRunResult result_;
  double utilization_block_verify_ = 0;
  double utilization_validators_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_bmac_saturate(const Context&) {
  return std::make_unique<BmacSaturate>();
}

}  // namespace perfbench
