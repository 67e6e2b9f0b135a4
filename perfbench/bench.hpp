// Shared pieces of the perfbench runner: the workload interface, wall-clock
// spans recorded around calls into the repo's modules, and the per-layer
// metric table every traced run fills in.
//
// Two clocks appear in every result. Host metrics are wall-clock costs of the
// real crypto, parsing and commit code; sim metrics are outputs of the
// discrete-event simulation, which never reads host time, so for a given
// seed they must be bit-identical between repetitions and between the
// untraced and traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> values);

std::string read_file(const std::string& path);
/// `text` (a scenario file) with its single "seed" key set to `seed`.
std::string with_seed(const std::string& text, std::uint64_t seed);

/// One timed repetition of a workload.
struct Sample {
  double wall_s = 0;       ///< host time of the timed region
  double tx = 0;           ///< transactions the repetition committed/replayed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Deterministic outputs (sim-clock values and counts), compared bit for
  /// bit across repetitions and between untraced and traced runs.
  std::vector<std::pair<std::string, double>> sim;
};

/// Wall-clock spans kept in memory and summarised when the run ends. A
/// span covers `ops` units of work (one call, or a batch of calls timed
/// together), so its per-op cost is duration / ops.
class Spans {
 public:
  /// Time fn() as one span named `name` covering `ops` units of work.
  template <class F>
  decltype(auto) time(const std::string& name, F&& fn, double ops = 1) {
    struct Recorder {
      Spans* spans;
      const std::string& name;
      double ops;
      Clock::time_point start = Clock::now();
      ~Recorder() {
        spans->spans_.push_back(
            {name, seconds_between(start, Clock::now()), ops});
      }
    } recorder{this, name, ops};
    return fn();
  }

  /// Median per-op duration of the spans named `name`, in seconds (0 when
  /// there are none).
  double median_per_op(const std::string& name) const;
  /// Summed duration of the spans named `name`, in seconds.
  double total(const std::string& name) const;
  /// Summed ops of the spans named `name`.
  double total_ops(const std::string& name) const;

 private:
  struct Span {
    std::string name;
    double seconds = 0;
    double ops = 1;
  };
  std::vector<Span> spans_;
};

/// Per-layer metrics in a fixed catalogue: every traced run prints every
/// entry, with 0 where the workload does not exercise that layer.
class Layers {
 public:
  Layers();
  void set(const std::string& name, double value);
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

struct Context {
  std::uint64_t seed = 1;
  std::string root;  ///< checkout root (holds configs/)
  std::string tmp;   ///< fresh scratch directory of this run
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build every input from scratch (scenario load, deployment, chain
  /// pre-generation). Timed as setup_s; may be called several times.
  virtual void setup() = 0;
  /// One repetition. Untimed preparation may happen inside; the sample's
  /// wall_s covers only the timed region. `traced` attaches the repo's
  /// observability sinks, which must not change any sim value.
  virtual Sample run(bool traced) = 0;
  /// Check the outputs of the repetitions so far, outside the timed region.
  /// Returns "" when correct, else the first problem. With `spans`, the
  /// check's replays are recorded for the per-layer metrics.
  virtual std::string check(Spans* spans) = 0;
  /// Fill the workload-specific per-layer metrics (traced runs only).
  /// `untraced_wall_s` is the median untraced repetition time.
  virtual void layers(Spans& spans, Layers& out, double untraced_wall_s) = 0;
  /// Self-test: a deliberately corrupted output must fail the workload's
  /// check. Returns "" when the corruption was caught (and for workloads
  /// without a corruption probe).
  virtual std::string self_test() = 0;
};

std::unique_ptr<Workload> make_serve_steady(const Context& ctx);
std::unique_ptr<Workload> make_cluster_failover(const Context& ctx);
std::unique_ptr<Workload> make_bmac_saturate(const Context& ctx);
std::unique_ptr<Workload> make_ledger_recover(const Context& ctx);

}  // namespace perfbench
