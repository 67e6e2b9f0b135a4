// cluster_failover: the configs/scenario_cluster.json topology (2 orgs x 2
// peers, 3 Raft orderers, 5% gossip loss) with per-peer durable logs in a
// fresh directory. The leader orderer is killed and one peer crashed cold
// at a quarter of the blocks; the peer restarts at three quarters, which
// triggers a snapshot state transfer, and the run settles. Five replicas
// (four peers plus the reference) validate every block, so this is the
// most verify-heavy workload, and the only one that exercises cluster,
// Raft, gossip, durable writes and state transfer.
//
// An operation is one transaction in the ordered chain: the cluster's
// client loop does not expose how many envelopes it offered.
#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "bench.hpp"
#include "cluster/cluster.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "serve/scenario.hpp"

namespace perfbench {

using namespace bm;

namespace {

constexpr std::uint64_t kBlocks = 40;
constexpr int kCrashedPeer = 3;
constexpr sim::Time kDeadline = 600 * sim::kSecond;
constexpr sim::Time kCatchUpLimit = 30 * sim::kSecond;
constexpr sim::Time kCatchUpStep = 100 * sim::kMicrosecond;

double ms(sim::Time t) { return static_cast<double>(t) / sim::kMillisecond; }

class ClusterFailover final : public Workload {
 public:
  explicit ClusterFailover(const Context& ctx) : ctx_(ctx) {}

  void setup() override {
    std::string error;
    const auto scenario = serve::parse_scenario(
        with_seed(read_file(ctx_.root + "/configs/scenario_cluster.json"),
                  ctx_.seed),
        &error);
    if (!scenario || !scenario->cluster)
      throw std::runtime_error("scenario_cluster: " + error);
    config_ = *scenario->cluster;
    config_.backend_factory =
        fabric::software_backend_factory({.parallelism = 1});
    config_.data_dir = ctx_.tmp + "/cluster";
    prepare();
  }

  Sample run(bool traced) override {
    if (!deployment_) prepare();
    cluster::ClusterDeployment& d = *deployment_;
    std::string problem;
    const auto t0 = Clock::now();
    bool reached = d.run_until_blocks(kBlocks / 4, kDeadline);
    const int leader = d.leader();
    if (leader >= 0) d.kill_orderer(leader);
    d.crash_peer(kCrashedPeer);
    reached = d.run_until_blocks(3 * kBlocks / 4, kDeadline) && reached;
    // Catch-up: from restart_peer until the restarted peer has committed
    // the first block emitted after the restart. The state transfer lands
    // the chain at once but holds gossip deliveries while the fetched bytes
    // occupy the peer's link, so this includes the transfer's link time.
    const sim::Time restarted_at = sim_->now();
    const std::uint64_t rejoin_height =
        d.harness().reference_ledger().height() + 1;
    d.restart_peer(kCrashedPeer);
    reached = d.run_until_blocks(rejoin_height, kDeadline) && reached;
    const sim::Time limit = restarted_at + kCatchUpLimit;
    while (d.peer_height(kCrashedPeer) < rejoin_height && sim_->now() < limit)
      d.settle(kCatchUpStep);
    const sim::Time caught_up_at = sim_->now();
    const bool caught_up = d.peer_height(kCrashedPeer) >= rejoin_height;
    reached = d.run_until_blocks(kBlocks, kDeadline) && reached;
    d.settle(2 * sim::kSecond);
    if (traced) {
      obs::Registry registry;
      d.publish_metrics(registry, "cluster");
    }
    const double wall_s = seconds_between(t0, Clock::now());

    if (!reached) problem = "block target not reached";
    else if (!caught_up) problem = "restarted peer never reached the tip";
    else if (leader < 0) problem = "no leader to kill";
    else if (!d.converged())
      problem = "cluster did not converge: " + d.divergence();
    else if (!d.divergence().empty())
      problem = "divergence: " + d.divergence();
    else if (d.ordering().forks_detected() != 0) problem = "ordering forked";
    else if (d.state_transfers() != 1 || !d.last_transfer().ok)
      problem = "expected one successful state transfer, saw " +
                std::to_string(d.state_transfers());
    if (problem_.empty()) problem_ = problem;

    sim::Time stall = 0;
    const auto& times = d.emission_times();
    for (std::size_t i = 1; i < times.size(); ++i)
      stall = std::max(stall, times[i] - times[i - 1]);

    const fabric::Ledger& reference = d.harness().reference_ledger();
    std::uint64_t txs = 0;
    for (std::uint64_t b = 0; b < reference.height(); ++b)
      txs += reference.at(b).block.tx_count();

    Sample sample;
    sample.wall_s = wall_s;
    sample.tx = static_cast<double>(txs);
    sample.attempted = txs;
    sample.sim = {
        {"sim_stall_ms", ms(stall)},
        {"sim_catchup_ms", ms(caught_up_at - restarted_at)},
        {"blocks", static_cast<double>(reference.height())},
        {"txs", static_cast<double>(txs)},
        {"state_transfers", static_cast<double>(d.state_transfers())},
        {"transfer_bytes", static_cast<double>(d.transfer_bytes())},
        {"gossip_messages", static_cast<double>(d.gossip().messages_sent())},
        {"sim_end_ms", ms(sim_->now())},
    };
    if (blocks_.empty()) keep(d, sample);
    // Free this deployment before the next one is built.
    deployment_.reset();
    sim_.reset();
    return sample;
  }

  std::string check(Spans* spans) override {
    if (!problem_.empty()) return problem_;
    if (const std::string f = unexpected_flags(expected_); !f.empty())
      return f;
    // Layer inputs: the reference chain replayed through an independent
    // backend, which must also reproduce it. A same-seed harness supplies
    // the deployment's MSP and policies.
    reference_ = std::make_unique<workload::FabricNetworkHarness>(
        network_options());
    replay_ = replay_blocks(blocks_, reference_->msp(),
                            reference_->policies(), ledger_, state_, spans);
    return first_divergence(expected_, replay_.results);
  }

  std::string self_test() override {
    return forged_signature_caught(blocks_.front(),
                                   reference_->orderer_identity(),
                                   reference_->msp(), reference_->policies());
  }

  void layers(Spans& spans, Layers& out, double untraced_wall_s) override {
    replay_harness(network_options(), 4 * static_cast<int>(config_.block_size),
                   spans);
    replay_chain_layers(ledger_, state_, ctx_.tmp, ctx_.seed, spans);

    const Counters& c = counters_;
    const double blocks = static_cast<double>(ledger_.height());
    const double validations =
        static_cast<double>(c.blocks_validated) + blocks;  // peers + reference
    const double checks_per_block =
        static_cast<double>(replay_.stats.total_ecdsa_checks()) / blocks;
    const double signs =
        static_cast<double>(replay_.txs +
                            replay_.stats.endorsement_signature_checks) +
        blocks;
    fill_replay_layers(spans, replay_, signs, validations * checks_per_block,
                       untraced_wall_s, out);

    out.set("fabric.raft_elections", static_cast<double>(c.elections));
    out.set("fabric.raft_duplicates_suppressed",
            static_cast<double>(c.duplicates_suppressed));
    out.set("cluster.transfer_bytes", static_cast<double>(c.transfer_bytes));
    out.set("cluster.catch_up_blocks",
            static_cast<double>(c.catch_up_blocks));
    const double messages = static_cast<double>(c.gossip_messages);
    out.set("net.gossip_msgs_per_block", messages / blocks);
    double mean_block_bytes = 0;
    for (std::uint64_t b = 0; b < ledger_.height(); ++b)
      mean_block_bytes +=
          static_cast<double>(ledger_.at(b).block.marshaled_size()) / blocks;
    // Every gossip push carries one marshaled block.
    out.set("net.gossip_bytes_per_block",
            messages / blocks * mean_block_bytes);
    out.set("net.gossip_dropped", static_cast<double>(c.gossip_dropped));
    const double events = static_cast<double>(c.events);
    out.set("sim.events", events);
    out.set("sim.ns_per_event", untraced_wall_s / events * 1e9);
    for (const auto& [name, value] : c.sim)
      if (name == "sim_stall_ms" || name == "sim_catchup_ms")
        out.set(name, value);
  }

 private:
  /// What the check and the layers need from the first repetition.
  struct Counters {
    std::uint64_t blocks_validated = 0;
    std::uint64_t elections = 0;  ///< highest Raft term
    std::uint64_t duplicates_suppressed = 0;
    std::uint64_t transfer_bytes = 0;
    std::uint64_t catch_up_blocks = 0;
    std::uint64_t gossip_messages = 0;
    std::uint64_t gossip_dropped = 0;
    std::uint64_t events = 0;
    std::vector<std::pair<std::string, double>> sim;
  };

  /// Fresh simulation and deployment over a wiped data directory (untimed).
  void prepare() {
    deployment_.reset();
    sim_.reset();
    std::filesystem::remove_all(config_.data_dir);
    std::filesystem::create_directories(config_.data_dir);
    sim_ = std::make_unique<sim::Simulation>();
    deployment_ = std::make_unique<cluster::ClusterDeployment>(*sim_, config_);
  }

  void keep(cluster::ClusterDeployment& d, const Sample& sample) {
    const fabric::Ledger& reference = d.harness().reference_ledger();
    for (std::uint64_t b = 0; b < reference.height(); ++b) {
      blocks_.push_back(reference.at(b).block);
      expected_.push_back(d.harness().reference_result(b));
    }
    Counters& c = counters_;
    c.blocks_validated = d.blocks_validated();
    for (std::size_t i = 0; i < d.ordering().node_count(); ++i)
      c.elections = std::max(c.elections,
                             d.ordering().node(static_cast<int>(i)).term());
    c.duplicates_suppressed = d.ordering().duplicates_suppressed();
    c.transfer_bytes = d.transfer_bytes();
    c.catch_up_blocks = d.catch_up_blocks();
    c.gossip_messages = d.gossip().messages_sent();
    const net::FaultStats* faults = d.gossip().fault_stats();
    c.gossip_dropped = faults != nullptr ? faults->dropped_total() : 0;
    c.events = sim_->events_executed();
    c.sim = sample.sim;
  }

  /// The options the deployment builds its reference harness from.
  workload::NetworkOptions network_options() const {
    workload::NetworkOptions options;
    options.orgs = config_.orgs;
    options.block_size = config_.block_size;
    options.seed = config_.seed;
    options.policy_text = config_.policy_text.empty()
                              ? std::to_string(config_.orgs) + "-outof-" +
                                    std::to_string(config_.orgs) + " orgs"
                              : config_.policy_text;
    options.backend_factory = config_.backend_factory;
    return options;
  }

  Context ctx_;
  cluster::ClusterConfig config_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<cluster::ClusterDeployment> deployment_;
  std::string problem_;
  // From the first repetition: its reference chain and flags, and counters.
  std::vector<fabric::Block> blocks_;
  std::vector<fabric::BlockValidationResult> expected_;
  Counters counters_;
  std::unique_ptr<workload::FabricNetworkHarness> reference_;
  Replay replay_;
  fabric::Ledger ledger_;
  fabric::StateDb state_;
};

}  // namespace

std::unique_ptr<Workload> make_cluster_failover(const Context& ctx) {
  return std::make_unique<ClusterFailover>(ctx);
}

}  // namespace perfbench
