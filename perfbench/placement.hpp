// CPU placement for set-ups and timed repetitions.
//
// On a shared host each vCPU's speed swings with what other tenants run on
// the same physical core, from one repetition to the next and in phases of
// seconds: SHA-256 and the sim event loop lose up to 40% while contended,
// and a run that stays on one CPU reads whatever that core's neighbours did
// meanwhile. The runner moves its one thread round the CPUs it may use,
// moving on between repetitions once it has stayed kDwellSeconds on one, so
// that every run averages over all of them. Only one thread runs at a time.
#pragma once

#include <cstddef>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Placement {
 public:
  /// Remembers the CPUs the process may use.
  Placement();
  /// Between repetitions: pin the calling thread to the next CPU in turn
  /// once it has stayed kDwellSeconds on the current one (at once on the
  /// first call). A no-op when only one CPU is usable.
  void between_repetitions();

 private:
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
  bool pinned_ = false;
  Clock::time_point since_{};
};

}  // namespace perfbench
