#include "bench.hpp"

#include <algorithm>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string with_seed(const std::string& text, std::uint64_t seed) {
  // The scenario parser derives every component seed from the one "seed"
  // key, so overriding it there keeps the repo's own derivation.
  const std::regex key(R"("seed"\s*:\s*[0-9]+)");
  const auto matches = std::distance(
      std::sregex_iterator(text.begin(), text.end(), key),
      std::sregex_iterator());
  if (matches != 1)
    throw std::runtime_error("scenario must hold exactly one \"seed\" key");
  return std::regex_replace(text, key, "\"seed\": " + std::to_string(seed));
}

double Spans::median_per_op(const std::string& name) const {
  std::vector<double> per_op;
  for (const Span& span : spans_)
    if (span.name == name && span.ops > 0)
      per_op.push_back(span.seconds / span.ops);
  return median(std::move(per_op));
}

double Spans::total(const std::string& name) const {
  double sum = 0;
  for (const Span& span : spans_)
    if (span.name == name) sum += span.seconds;
  return sum;
}

double Spans::total_ops(const std::string& name) const {
  double sum = 0;
  for (const Span& span : spans_)
    if (span.name == name) sum += span.ops;
  return sum;
}

namespace {

// The per-layer catalogue, in output order. Units name the clock: "sim_*"
// units are simulated time, every other time unit is host wall time.
const std::vector<std::pair<const char*, const char*>> kCatalogue = {
    {"crypto.sign_us", "us"},
    {"crypto.verify_us", "us"},
    {"crypto.field_mul_ns", "ns"},
    {"crypto.field_inv_us", "us"},
    {"crypto.scalar_inv_us", "us"},
    {"crypto.share", "ratio"},
    {"crypto.sha256_mb_per_s", "MB/s"},
    {"common.crc32_mb_per_s", "MB/s"},
    {"wire.block_unmarshal_us", "us"},
    {"wire.envelope_parse_us", "us"},
    {"wire.block_marshal_us", "us"},
    {"fabric.recover_scan_mb_per_s", "MB/s"},
    {"fabric.replay_chain_ms", "ms"},
    {"fabric.validate_block_ms", "ms"},
    {"fabric.mvcc_schedule_us", "us"},
    {"fabric.statedb_commit_us", "us"},
    {"fabric.db_ops_per_tx", "count"},
    {"fabric.valid_tx_ratio", "ratio"},
    {"fabric.append_us", "us"},
    {"fabric.snapshot_ms", "ms"},
    {"fabric.raft_elections", "count"},
    {"fabric.raft_duplicates_suppressed", "count"},
    {"cluster.transfer_bytes", "bytes"},
    {"cluster.catch_up_blocks", "count"},
    {"net.gossip_msgs_per_block", "count"},
    {"net.gossip_bytes_per_block", "bytes"},
    {"net.gossip_dropped", "count"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"bmac.engine_utilization_block_verify", "ratio"},
    {"bmac.engine_utilization_validators", "ratio"},
    {"bmac.ecdsa_skipped_ratio", "ratio"},
    {"bmac.db_host_accesses", "count"},
    {"serve.admission_wait_ms_p99", "sim_ms"},
    {"serve.endorse_ms_p99", "sim_ms"},
    {"serve.order_wait_ms_p99", "sim_ms"},
    {"serve.commit_ms_p99", "sim_ms"},
    {"serve.shed_share", "ratio"},
    {"serve.session_reject_share", "ratio"},
    {"workload.prepare_tx_us", "us"},
    {"workload.sign_envelope_us", "us"},
    {"workload.commit_block_ms", "ms"},
    {"obs.trace_overhead", "ratio"},
    {"sim_tps", "sim_tx/s"},
    {"sim_latency_ms_p50", "sim_ms"},
    {"sim_latency_ms_p99", "sim_ms"},
    {"sim_block_ms", "sim_ms"},
    {"sim_stall_ms", "sim_ms"},
    {"sim_catchup_ms", "sim_ms"},
    {"snap_recover_ms", "ms"},
};

}  // namespace

Layers::Layers() {
  for (const auto& [name, unit] : kCatalogue)
    entries_.push_back(Entry{name, unit, 0});
}

void Layers::set(const std::string& name, double value) {
  for (Entry& entry : entries_)
    if (entry.name == name) {
      entry.value = value;
      return;
    }
  throw std::logic_error("unknown per-layer metric " + name);
}

}  // namespace perfbench
