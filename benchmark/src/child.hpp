// Interface between the dcbench parent process and the child processes it spawns.
#pragma once

#include <cstdint>
#include <string>

#include "workloads.hpp"

namespace dcbench {

/// Traced-run probe groups, each run in its own child process so a stalled
/// pool costs one group, not the run. "stall" is expected to stall on a
/// multi-worker pool at this commit; the parent reads its progress count.
inline constexpr const char* kTraceGroups[] = {"ops",  "layers", "cold",
                                               "pool", "shard",  "stall"};

struct ChildArgs {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::string mode;    ///< "run" (ops until until_ns) or "trace" (one
                       ///< probe group)
  std::string group;   ///< trace group name
  std::string inject;  ///< self-test fault: wrong, counters, stall, crash,
                       ///< exception (empty = none)
  std::uint64_t first_op = 0;  ///< index of the child's first op
  std::uint64_t until_ns = 0;  ///< steady-clock time after which no op starts
};

/// Runs one child process's work and returns its exit code: 0 after a
/// clean end, 3 after an op (or a probe) threw.
int child_main(const ChildArgs& a, std::uint64_t t_main);

}  // namespace dcbench
