// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --root CHECKOUT --tmp DIR [--source-id ID]
//
// Untraced (--trace 0): set the workload up at least three times and for
// two seconds (setup_s is the median), repeat it for S seconds with no
// observability sinks attached, check the outputs, and print the end-to-end
// metrics. Traced (--trace 1): alternate untraced and traced repetitions for
// S seconds, then replay the workload's inputs through each layer with
// wall-clock spans and print the per-layer metrics. In both modes every
// repetition's sim values must be bit-identical to the first one's, and the
// outputs must pass the workload's check and self-test; otherwise the result
// reads correct=false and every operation counts as failed.
//
// The last stdout line is the result object; the line before it is the
// full report (provenance plus every metric with its unit and clock).
//
// Set-ups and repetitions move round the usable CPUs (placement.hpp), one
// thread at a time, so a run samples every CPU of a shared host.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "placement.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

constexpr std::size_t kSetupRepeats = 3;
// Long enough for the placement to visit every CPU of a 4-vCPU host.
constexpr double kSetupSeconds = 2.0;
constexpr double kSetupBatchSeconds = 0.01;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string root = ".";
  std::string tmp;
  std::string source_id = "unknown";
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = std::stoi(value);
    else if (flag == "--root") args.root = value;
    else if (flag == "--tmp") args.tmp = value;
    else if (flag == "--source-id") args.source_id = value;
    else return false;
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.tmp.empty() &&
         args.seconds > 0 && (args.trace == 0 || args.trace == 1);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string clock;
};

std::string metrics_json(const std::vector<Metric>& metrics, bool with_clock) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", " : "") + json_string(m.name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit);
    if (with_clock) out += ", \"clock\": " + json_string(m.clock);
    out += "}";
  }
  return out + "}";
}

std::string join(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) out += (out.empty() ? "" : ", ") + json_number(v);
  return out;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// "" when `sample` reproduces `first` bit for bit.
std::string compare_sim(const Sample& first, const Sample& sample) {
  if (first.sim.size() != sample.sim.size()) return "sim value count differs";
  for (std::size_t i = 0; i < first.sim.size(); ++i)
    if (first.sim[i].first != sample.sim[i].first ||
        !same_bits(first.sim[i].second, sample.sim[i].second))
      return "sim value " + first.sim[i].first + " differs between runs (" +
             json_number(first.sim[i].second) + " vs " +
             json_number(sample.sim[i].second) + ")";
  return "";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string unit_of_sim(const std::string& name) {
  auto ends_with = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (ends_with("tps")) return "sim_tx/s";
  if (ends_with("_ms") || name.find("_ms_") != std::string::npos)
    return "sim_ms";
  if (ends_with("_us")) return "sim_us";
  return "count";
}

int run(const Args& args) {
  const std::map<std::string, std::function<std::unique_ptr<Workload>(
                                  const Context&)>>
      factories = {{"serve_steady", make_serve_steady},
                   {"cluster_failover", make_cluster_failover},
                   {"bmac_saturate", make_bmac_saturate},
                   {"ledger_recover", make_ledger_recover}};
  const auto factory = factories.find(args.workload);
  if (factory == factories.end()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  // Fresh scratch directory: stale logs from an earlier run would mis-chain.
  std::filesystem::remove_all(args.tmp);
  std::filesystem::create_directories(args.tmp);
  const Context ctx{args.seed, args.root, args.tmp};
  const std::unique_ptr<Workload> workload = factory->second(ctx);

  // Set up in batches, at least kSetupRepeats of them and for kSetupSeconds,
  // so that even a microsecond set-up gets a steady median. A batch doubles
  // until it lasts kSetupBatchSeconds, which bounds the number of samples.
  // setup_s is the median per-set-up time of the batches.
  Placement placement;
  std::vector<double> setup_times;
  std::size_t batch = 1;
  const auto setup_start = Clock::now();
  do {
    placement.between_repetitions();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) workload->setup();
    const double seconds = seconds_between(t0, Clock::now());
    setup_times.push_back(seconds / static_cast<double>(batch));
    if (seconds < kSetupBatchSeconds) batch *= 2;
  } while (!args.trace &&
           (setup_times.size() < kSetupRepeats ||
            seconds_between(setup_start, Clock::now()) < kSetupSeconds));

  // Timed repetitions. The traced mode alternates untraced and traced runs
  // so both see the same host drift.
  std::vector<Sample> untraced, traced;
  std::string problem;
  const auto loop_start = Clock::now();
  while (untraced.empty() || (args.trace && traced.empty()) ||
         seconds_between(loop_start, Clock::now()) < args.seconds) {
    const bool trace_this = args.trace && traced.size() < untraced.size();
    placement.between_repetitions();
    Sample sample = workload->run(trace_this);
    const Sample& first = untraced.empty() ? sample : untraced.front();
    if (problem.empty()) problem = compare_sim(first, sample);
    (trace_this ? traced : untraced).push_back(std::move(sample));
  }
  // Before the check and self-test, whose replays are the benchmark's own.
  const double rss_mb = peak_rss_mb();

  Spans spans;
  if (problem.empty())
    problem = workload->check(args.trace ? &spans : nullptr);
  if (problem.empty()) {
    const std::string caught = workload->self_test();
    if (!caught.empty()) problem = "self-test: " + caught;
  }

  std::uint64_t attempted = 0, failed = 0;
  double tx = 0, wall_s = 0;
  std::vector<double> rates, untraced_walls, traced_walls;
  for (const Sample& s : untraced) {
    attempted += s.attempted;
    failed += s.failed;
    tx += s.tx;
    wall_s += s.wall_s;
    rates.push_back(s.tx / s.wall_s);
    untraced_walls.push_back(s.wall_s);
  }
  for (const Sample& s : traced) {
    attempted += s.attempted;
    failed += s.failed;
    traced_walls.push_back(s.wall_s);
  }
  const bool correct = problem.empty();
  if (!correct) {
    std::fprintf(stderr, "%s: check failed: %s\n", args.workload.c_str(),
                 problem.c_str());
    failed = attempted;
  }

  std::vector<Metric> end_to_end = {
      // Over the whole timed region: host speed on a shared machine drifts
      // over minutes, and the total is steadier than a per-repetition median.
      {"tx_per_s", tx / wall_s, "tx/s", "host"},
      {"setup_s", median(setup_times), "s", "host"},
      {"peak_rss_mb", rss_mb, "MiB", "host"},
  };
  std::vector<Metric> sim;
  for (const auto& [name, value] : untraced.front().sim)
    sim.push_back({name, value, unit_of_sim(name), "sim"});

  std::vector<Metric> per_layer;
  if (args.trace) {
    Layers layers;
    const double untraced_wall = median(untraced_walls);
    workload->layers(spans, layers, untraced_wall);
    layers.set("obs.trace_overhead", median(traced_walls) / untraced_wall);
    for (const Layers::Entry& e : layers.entries())
      per_layer.push_back({e.name, e.value, e.unit,
                           e.unit.rfind("sim_", 0) == 0 ? "sim" : "host"});
  }

  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 0) load[0] = -1;
  std::ostringstream report;
  report << "{\"report\": {\"workload\": " << json_string(args.workload)
         << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
         << ", \"correct\": " << (correct ? "true" : "false")
         << ", \"problem\": " << json_string(problem)
         << ", \"repetitions\": " << untraced.size() + traced.size()
         << ", \"rep_tx_per_s\": [" << join(rates) << "]"
         << ", \"provenance\": {\"source\": " << json_string(args.source_id)
         << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
         << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
         << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
         << ", \"loadavg\": " << json_number(load[0]) << "}"
         << ", \"end_to_end\": " << metrics_json(end_to_end, true)
         << ", \"sim\": " << metrics_json(sim, true)
         << ", \"per_layer\": " << metrics_json(per_layer, true) << "}}";
  std::printf("%s\n", report.str().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(args.trace ? per_layer : end_to_end, false).c_str());
  std::filesystem::remove_all(args.tmp);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench refuses to time an unoptimised build\n");
  return 3;
#endif
  Args args;
  try {
    if (!parse(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload NAME --seed N --seconds S "
                   "--trace 0|1 --root DIR --tmp DIR [--source-id ID]\n");
      return 2;
    }
    // Hermetic: the validator must never size a pool from the environment.
    unsetenv("BM_VALIDATOR_THREADS");
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
}
