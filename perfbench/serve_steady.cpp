// serve_steady: configs/scenario_steady.json through serve::run_serve.
// Open-loop Poisson arrivals in sim time at 1500 tps, 5000 Zipf sessions,
// 2 orgs, smallbank with Zipf 0.9 key skew. Host time is almost all ECDSA
// sign (client plus endorsers) and verify in the reference commit.
//
// An operation is one offered transaction. The scenario's clients
// deliberately forge some certificates and replay or skip some sequence
// numbers; refusing exactly those offers is the session layer's correct
// answer, so such a refusal is a successful operation (and is reported as
// serve.session_reject_share). Shed and timed-out offers fail; a refusal
// for any other reason fails the check.
#include <stdexcept>

#include "bench.hpp"
#include "fabric/validator_backend.hpp"
#include "layers.hpp"
#include "serve/pipeline.hpp"
#include "serve/scenario.hpp"

namespace perfbench {

using namespace bm;

namespace {

class ServeSteady final : public Workload {
 public:
  // The benchmark's seed substitution is done once here, so that setup_s
  // times only the repo's scenario parser.
  explicit ServeSteady(const Context& ctx)
      : ctx_(ctx),
        scenario_text_(with_seed(
            read_file(ctx.root + "/configs/scenario_steady.json"), ctx.seed)) {}

  void setup() override {
    std::string error;
    const auto scenario = serve::parse_scenario(scenario_text_, &error);
    if (!scenario) throw std::runtime_error("scenario_steady: " + error);
    options_ = scenario->serve;
    options_.endorse.sign_threads = 1;
    options_.network.backend_factory =
        fabric::software_backend_factory({.parallelism = 1});
  }

  Sample run(bool traced) override {
    // Only the first repetition, the one the check replays, keeps blocks.
    serve::ServeOptions options = options_;
    options.keep_blocks = !report_;
    obs::Registry registry;
    obs::Tracer tracer;
    const auto t0 = Clock::now();
    serve::ServeReport report =
        serve::run_serve(options, traced ? &registry : nullptr,
                         traced ? &tracer : nullptr);
    Sample sample;
    sample.wall_s = seconds_between(t0, Clock::now());
    sample.tx = static_cast<double>(report.committed_txs);
    sample.attempted = report.offered;
    sample.failed =
        report.offered - report.committed_txs - report.rejected_session;
    sample.sim = {
        {"sim_tps", report.goodput_tps},
        {"sim_latency_ms_p50", report.total_ms.p50},
        {"sim_latency_ms_p99", report.total_ms.p99},
        {"sim_latency_samples", static_cast<double>(report.total_ms.count)},
        {"offered", static_cast<double>(report.offered)},
        {"committed", static_cast<double>(report.committed_txs)},
        {"valid", static_cast<double>(report.valid_txs)},
        {"rejected_session", static_cast<double>(report.rejected_session)},
        {"blocks", static_cast<double>(report.blocks_committed)},
        {"admission_wait_ms_p99", report.admission_wait_ms.p99},
        {"endorse_ms_p99", report.endorse_ms.p99},
        {"order_wait_ms_p99", report.order_wait_ms.p99},
        {"commit_ms_p99", report.commit_ms.p99},
    };
    if (!report_) report_ = std::move(report);
    return sample;
  }

  std::string check(Spans* spans) override {
    const serve::ServeReport& report = *report_;
    if (!report.drained) return "serve run did not drain";
    if (report.blocks.size() != report.blocks_committed)
      return "kept " + std::to_string(report.blocks.size()) +
             " blocks, report says " +
             std::to_string(report.blocks_committed);
    if (const std::string r = unexpected_refusals(report); !r.empty())
      return r;
    // Reference: the reference commit of a same-seed harness (identical
    // identities, policies and backend). Candidate: an independent
    // sequential software backend.
    reference_ =
        std::make_unique<workload::FabricNetworkHarness>(options_.network);
    for (const fabric::Block& block : report.blocks) {
      auto commit = [&] { return reference_->commit_block(block); };
      expected_.push_back(spans != nullptr
                              ? spans->time("workload.commit_block", commit)
                              : commit());
    }
    if (const std::string f = unexpected_flags(expected_); !f.empty())
      return f;
    replay_ = replay_blocks(report.blocks, reference_->msp(),
                            reference_->policies(), ledger_, state_, spans);
    if (const std::string d = first_divergence(expected_, replay_.results);
        !d.empty())
      return d;
    if (replay_.txs != report.committed_txs || replay_.valid != report.valid_txs)
      return "replayed " + std::to_string(replay_.valid) + "/" +
             std::to_string(replay_.txs) + " valid, report says " +
             std::to_string(report.valid_txs) + "/" +
             std::to_string(report.committed_txs);
    return "";
  }

  std::string self_test() override {
    if (expected_.empty()) return "no replay to corrupt";
    auto corrupted = expected_;
    corrupted[corrupted.size() / 2].commit_hash[0] ^= 0x01;
    if (first_divergence(corrupted, replay_.results).empty())
      return "a wrong commit hash passed the serve replay check";
    return forged_signature_caught(report_->blocks.front(),
                                   reference_->orderer_identity(),
                                   reference_->msp(), reference_->policies());
  }

  void layers(Spans& spans, Layers& out, double untraced_wall_s) override {
    const serve::ServeReport& report = *report_;
    replay_harness(options_.network, 2 * static_cast<int>(
                                             options_.ingress.max_batch),
                   spans);
    replay_chain_layers(ledger_, state_, ctx_.tmp, ctx_.seed, spans);
    // ECDSA calls of one repetition: every committed transaction was
    // signed by its client and each endorser and verified once per
    // signature by the reference commit; every block was signed and
    // verified once.
    const double endorsements =
        static_cast<double>(replay_.stats.endorsement_signature_checks);
    const double txs = static_cast<double>(report.committed_txs);
    const double blocks = static_cast<double>(report.blocks_committed);
    fill_replay_layers(spans, replay_, txs + endorsements + blocks,
                       static_cast<double>(replay_.stats.total_ecdsa_checks()),
                       untraced_wall_s, out);
    const double offered = static_cast<double>(report.offered);
    out.set("fabric.valid_tx_ratio",
            txs > 0 ? static_cast<double>(report.valid_txs) / txs : 0.0);
    out.set("serve.admission_wait_ms_p99", report.admission_wait_ms.p99);
    out.set("serve.endorse_ms_p99", report.endorse_ms.p99);
    out.set("serve.order_wait_ms_p99", report.order_wait_ms.p99);
    out.set("serve.commit_ms_p99", report.commit_ms.p99);
    out.set("serve.shed_share",
            static_cast<double>(report.shed_total()) / offered);
    out.set("serve.session_reject_share",
            static_cast<double>(report.rejected_session) / offered);
    out.set("sim_tps", report.goodput_tps);
    out.set("sim_latency_ms_p50", report.total_ms.p50);
    out.set("sim_latency_ms_p99", report.total_ms.p99);
  }

 private:
  /// "" when every session-layer refusal answers a misbehaviour the
  /// scenario injects (a forged certificate, a replayed or skipped sequence
  /// number) and their number is plausible for the configured rates.
  std::string unexpected_refusals(const serve::ServeReport& report) const {
    const serve::SessionStats& s = report.session_stats;
    if (s.rejected_capacity != 0 || s.seq_overflow != 0)
      return "session layer refused offers for capacity or sequence overflow";
    // Refused arrivals are refused handshakes or refused sequence numbers.
    // Handshakes also run at preconnect, so the stats may count more
    // forged certificates than arrivals they refused, never fewer.
    const std::uint64_t seq = s.seq_duplicate + s.seq_out_of_order;
    if (report.rejected_session < seq ||
        report.rejected_session - seq > s.rejected_bad_cert)
      return std::to_string(report.rejected_session) +
             " session refusals are not explained by " +
             std::to_string(s.rejected_bad_cert) + " forged certificates and " +
             std::to_string(seq) + " bad sequence numbers";
    const serve::SessionConfig& c = options_.sessions;
    const double cap = 2 *
                       (c.bad_cert_share + c.duplicate_rate +
                        c.out_of_order_rate) *
                       static_cast<double>(report.offered);
    if (static_cast<double>(report.rejected_session) > cap)
      return std::to_string(report.rejected_session) +
             " session refusals exceed twice the scenario's misbehaviour "
             "rates";
    return "";
  }

  Context ctx_;
  std::string scenario_text_;
  serve::ServeOptions options_;
  std::unique_ptr<workload::FabricNetworkHarness> reference_;
  std::optional<serve::ServeReport> report_;  ///< first repetition's
  std::vector<fabric::BlockValidationResult> expected_;
  Replay replay_;
  fabric::Ledger ledger_;
  fabric::StateDb state_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_steady(const Context& ctx) {
  return std::make_unique<ServeSteady>(ctx);
}

}  // namespace perfbench
