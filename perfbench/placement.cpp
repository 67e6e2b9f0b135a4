#include "placement.hpp"

#include <sched.h>

namespace perfbench {

namespace {

// Long enough that the caches warmed after a move serve most of the stay,
// short enough that a run of the benchmark visits every CPU many times.
constexpr double kDwellSeconds = 0.5;

}  // namespace

Placement::Placement() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
}

void Placement::between_repetitions() {
  if (cpus_.size() < 2) return;
  const auto now = Clock::now();
  if (pinned_ && seconds_between(since_, now) < kDwellSeconds) return;
  pinned_ = true;
  since_ = now;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[turn_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

}  // namespace perfbench
