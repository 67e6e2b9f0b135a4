// Tests for the observability layer: metrics registry semantics, tracer
// output well-formedness, FIFO probes, end-to-end snapshot determinism and
// the null-sink zero-overhead guarantee.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "bmac/block_processor.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/probes.hpp"
#include "obs/trace.hpp"
#include "sim/fifo.hpp"
#include "sim/simulation.hpp"
#include "workload/synthetic.hpp"

namespace bm::obs {
namespace {

// --- registry semantics -----------------------------------------------------

TEST(Registry, RegisterOrGetReturnsSameObject) {
  Registry registry;
  Counter& a = registry.counter("requests_total", "help");
  Counter& b = registry.counter("requests_total");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  b.inc();
  EXPECT_EQ(a.value(), 4u);
  EXPECT_EQ(registry.find_counter("requests_total")->value(), 4u);
  EXPECT_EQ(registry.find_counter("never_registered"), nullptr);
}

TEST(Registry, GaugeSetAndAdd) {
  Registry registry;
  Gauge& g = registry.gauge("depth");
  g.set(4.5);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(registry.find_gauge("depth")->value(), 3.0);
}

TEST(Histogram, BucketsAreCumulativeWithInf) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);
  ASSERT_EQ(h.bucket_counts().size(), 4u);  // 3 bounds + Inf
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
}

TEST(Histogram, StddevMatchesDefinition) {
  Histogram h({100.0});
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) h.observe(v);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  EXPECT_NEAR(h.stddev(), 2.0, 1e-12);  // classic population-stddev example
}

TEST(Registry, PrometheusTextExposition) {
  Registry registry;
  registry.counter("events_total", "number of events").inc(7);
  registry.gauge("queue_depth").set(3);
  auto& h = registry.histogram("latency_ms", {1.0, 5.0}, "latency");
  h.observe(0.5);
  h.observe(3.0);
  h.observe(40.0);
  const std::string text = registry.render_text(1500);
  EXPECT_NE(text.find("# TYPE events_total counter"), std::string::npos);
  EXPECT_NE(text.find("events_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_bucket{le=\"5\"} 2"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_count 3"), std::string::npos);
}

TEST(Registry, JsonSnapshotParsesAndCarriesTime) {
  Registry registry;
  registry.counter("c").inc(2);
  registry.gauge("g").set(0.25);
  registry.histogram("h", {10.0}).observe(4);
  std::string error;
  const auto parsed = json::parse(registry.render_json(42), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_TRUE(parsed->is_object());
  EXPECT_DOUBLE_EQ(parsed->find("at_ns")->number, 42.0);
  EXPECT_DOUBLE_EQ(parsed->find("counters")->find("c")->number, 2.0);
  EXPECT_DOUBLE_EQ(parsed->find("gauges")->find("g")->number, 0.25);
  const json::Value* h = parsed->find("histograms")->find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("count")->number, 1.0);
  ASSERT_EQ(h->find("buckets")->array.size(), 2u);  // le=10 and +Inf
}

TEST(FormatNumber, IntegersExactNonIntegersRoundTrip) {
  EXPECT_EQ(detail::format_number(0), "0");
  EXPECT_EQ(detail::format_number(42), "42");
  EXPECT_EQ(detail::format_number(-3), "-3");
  EXPECT_EQ(detail::format_number(1e12), "1000000000000");
  EXPECT_EQ(detail::format_number(0.25), "0.25");
  // Same input always renders the same bytes (determinism requirement).
  EXPECT_EQ(detail::format_number(1.0 / 3.0), detail::format_number(1.0 / 3.0));
}

// --- tracer -----------------------------------------------------------------

TEST(Tracer, LanesProcessesAndCategories) {
  Tracer tracer;
  const int pid = tracer.begin_process("peer");
  const int a = tracer.lane("stage_a");
  const int b = tracer.lane("stage_b");
  EXPECT_NE(a, b);
  tracer.complete(a, "work", "pipeline", 100, 200);
  tracer.instant(b, "tick", "monitor", 150);
  tracer.counter(a, "depth", "fifo", 120, 3);
  EXPECT_EQ(tracer.event_count(), 3u);
  EXPECT_EQ(tracer.categories(),
            (std::vector<std::string>{"fifo", "monitor", "pipeline"}));
  EXPECT_EQ(tracer.events()[0].process, pid);
}

TEST(Tracer, ChromeJsonIsWellFormed) {
  Tracer tracer;
  tracer.begin_process("peer");
  const int lane = tracer.lane("stage");
  tracer.complete(lane, "span", "cat", 1000, 3500, {{"block", std::uint64_t{7}},
                                                    {"note", "a\"b"}});
  tracer.instant(lane, "mark", "cat", 2000);
  std::string error;
  const auto parsed = json::parse(tracer.to_chrome_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const json::Value* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Metadata (process_name, thread_name, thread_sort_index) + 2 events.
  ASSERT_EQ(events->array.size(), 5u);
  const json::Value& span = events->array[3];
  EXPECT_EQ(span.find("ph")->string, "X");
  EXPECT_DOUBLE_EQ(span.find("ts")->number, 1.0);    // 1000 ns = 1 us
  EXPECT_DOUBLE_EQ(span.find("dur")->number, 2.5);   // 2500 ns
  EXPECT_DOUBLE_EQ(span.find("args")->find("block")->number, 7.0);
  EXPECT_EQ(span.find("args")->find("note")->string, "a\"b");
  EXPECT_EQ(events->array[4].find("ph")->string, "i");
}

TEST(Tracer, SubMicrosecondTimestampsSurvive) {
  Tracer tracer;
  const int lane = tracer.lane("l");
  tracer.complete(lane, "tiny", "cat", 200, 400);  // 200 ns
  const std::string out = tracer.to_chrome_json();
  EXPECT_NE(out.find("\"ts\":0.200"), std::string::npos);
  EXPECT_NE(out.find("\"dur\":0.200"), std::string::npos);
}

// --- FIFO probes ------------------------------------------------------------

sim::Process probe_producer(sim::Simulation&, sim::Fifo<int>& fifo, int n) {
  for (int i = 0; i < n; ++i) co_await fifo.put(i);
}

sim::Process probe_consumer(sim::Simulation& sim, sim::Fifo<int>& fifo,
                            int n) {
  for (int i = 0; i < n; ++i) {
    co_await sim.delay(100);
    (void)co_await fifo.get();
  }
}

TEST(FifoProbes, DepthAndStallEventsAreRecorded) {
  sim::Simulation sim;
  sim::Fifo<int> fifo(sim, 2, "probe_fifo");
  Tracer tracer;
  attach_fifo_trace(sim, fifo, &tracer, tracer.lane("probe_fifo"));
  sim.spawn(probe_producer(sim, fifo, 6));
  sim.spawn(probe_consumer(sim, fifo, 6));
  sim.run();

  std::size_t depth_samples = 0;
  std::size_t stalls = 0;
  for (const auto& e : tracer.events()) {
    if (e.phase == 'C') ++depth_samples;
    if (e.phase == 'X' && e.name == "probe_fifo stall") {
      ++stalls;
      EXPECT_LT(e.start, e.end);  // a real wait, bounded by the probe
    }
  }
  EXPECT_GT(depth_samples, 0u);
  EXPECT_GT(stalls, 0u);  // capacity 2 vs slow consumer -> back-pressure
  EXPECT_EQ(fifo.total_pushed(), 6u);
  EXPECT_EQ(fifo.total_popped(), 6u);

  Registry registry;
  publish_fifo_metrics(registry, fifo, "t");
  EXPECT_EQ(registry.find_counter("t_probe_fifo_pushed_total")->value(), 6u);
  EXPECT_EQ(registry.find_counter("t_probe_fifo_blocked_puts_total")->value(),
            fifo.blocked_put_events());
  EXPECT_DOUBLE_EQ(registry.find_gauge("t_probe_fifo_capacity")->value(), 2.0);
  // Idempotent: publishing again must not double anything.
  publish_fifo_metrics(registry, fifo, "t");
  EXPECT_EQ(registry.find_counter("t_probe_fifo_pushed_total")->value(), 6u);
}

// --- end-to-end: pipeline instrumentation ----------------------------------

workload::SyntheticSpec tiny_spec() {
  workload::SyntheticSpec spec;
  spec.blocks = 3;
  spec.block_size = 10;
  spec.hw.tx_validators = 2;
  spec.hw.engines_per_vscc = 2;
  return spec;
}

TEST(PipelineObservability, SnapshotsAreByteIdenticalAcrossRuns) {
  std::string metrics[2];
  std::string traces[2];
  for (int run = 0; run < 2; ++run) {
    Registry registry;
    Tracer tracer;
    auto spec = tiny_spec();
    spec.registry = &registry;
    spec.tracer = &tracer;
    const auto result = workload::run_hw_workload(spec);
    metrics[run] = registry.render_json(
        static_cast<sim::Time>(result.sim_seconds * sim::kSecond));
    traces[run] = tracer.to_chrome_json();
  }
  EXPECT_EQ(metrics[0], metrics[1]);
  EXPECT_EQ(traces[0], traces[1]);
}

TEST(PipelineObservability, NullSinkExecutesIdenticalEventCount) {
  const auto plain = workload::run_hw_workload(tiny_spec());

  Registry registry;
  Tracer tracer;
  auto spec = tiny_spec();
  spec.registry = &registry;
  spec.tracer = &tracer;
  const auto traced = workload::run_hw_workload(spec);

  // Probes never schedule simulation events: same event count, same
  // simulated timing, to the nanosecond.
  EXPECT_EQ(plain.events_executed, traced.events_executed);
  EXPECT_DOUBLE_EQ(plain.sim_seconds, traced.sim_seconds);
  EXPECT_DOUBLE_EQ(plain.tps, traced.tps);
  EXPECT_GT(tracer.event_count(), 0u);
}

TEST(PipelineObservability, RegistryMatchesMonitorCounters) {
  Registry registry;
  auto spec = tiny_spec();
  spec.registry = &registry;
  const auto result = workload::run_hw_workload(spec);

  EXPECT_EQ(registry.find_counter("bmac_txs_validated_total")->value(),
            result.total_txs);
  EXPECT_EQ(registry.find_counter("bmac_txs_valid_total")->value(),
            result.valid_txs);
  EXPECT_EQ(registry.find_counter("bmac_ecdsa_executed_total")->value(),
            result.ecdsa_executed);
  EXPECT_EQ(registry.find_counter("bmac_ecdsa_skipped_total")->value(),
            result.ecdsa_skipped);
  EXPECT_EQ(registry.find_counter("bmac_blocks_validated_total")->value(), 3u);
  EXPECT_EQ(
      registry.find_histogram("bmac_block_validation_latency_ms")->count(),
      3u);
  EXPECT_EQ(registry.find_histogram("bmac_tx_validation_latency_us")->count(),
            result.total_txs);

  // Engine utilization gauges exist and are sane fractions.
  const Gauge* util = registry.find_gauge("bmac_engine_utilization");
  ASSERT_NE(util, nullptr);
  EXPECT_GT(util->value(), 0.0);
  EXPECT_LE(util->value(), 1.0);
  for (int v = 0; v < 2; ++v) {
    const Gauge* per = registry.find_gauge("bmac_engine_utilization_v" +
                                           std::to_string(v));
    ASSERT_NE(per, nullptr);
    EXPECT_GE(per->value(), 0.0);
    EXPECT_LE(per->value(), 1.0);
  }
}

TEST(PipelineObservability, CompleteSpansNestPerLane) {
  Tracer tracer;
  auto spec = tiny_spec();
  spec.tracer = &tracer;
  (void)workload::run_hw_workload(spec);

  // Chrome 'X' events on one (pid, tid) must not partially overlap, or the
  // viewer renders garbage. Each sequential stage has its own lane, so
  // consecutive spans per lane must be disjoint (or nested).
  std::map<std::pair<int, int>, sim::Time> last_end;
  for (const auto& e : tracer.events()) {
    if (e.phase != 'X') continue;
    const auto key = std::make_pair(e.process, e.lane);
    const auto it = last_end.find(key);
    if (it != last_end.end()) {
      EXPECT_GE(e.start, it->second)
          << "overlapping spans on lane " << e.lane << " (" << e.name << ")";
    }
    last_end[key] = e.end;
  }

  const auto cats = tracer.categories();
  const std::set<std::string> cat_set(cats.begin(), cats.end());
  EXPECT_TRUE(cat_set.count("ecdsa"));
  EXPECT_TRUE(cat_set.count("pipeline"));
  EXPECT_TRUE(cat_set.count("monitor"));
  EXPECT_TRUE(cat_set.count("fifo"));
  EXPECT_TRUE(cat_set.count("host-commit"));
}

}  // namespace
}  // namespace bm::obs
