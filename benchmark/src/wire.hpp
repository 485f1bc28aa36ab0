// The child -> parent report channel and the small helpers both sides share.
//
// A child writes one text line per message to file descriptor kReportFd,
// each with a single write() shorter than PIPE_BUF, so lines never tear:
//
//   H <pool_size> <isa>                        child is up, pool started
//   O <index> <wall_ns> <items> <cold> <status> <comm> <comp> <msgs> <ops>
//                                              one verified (or failed) op
//   S <ns>                                     main() entry -> first result
//   P <value>                                  heartbeat / progress count
//   M <name> <value>                           one per-layer measurement
//   T <id> <parent> <start_ns> <end_ns> <name> one span
//   E                                          clean end
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace dcbench {

inline constexpr int kReportFd = 3;

/// Outcome of one op. The child decides the first four; the parent adds
/// stall and crash when a child stops answering or dies.
enum class Status { kOk, kWrong, kCounters, kException, kStall, kCrash };

inline const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kWrong: return "wrong";
    case Status::kCounters: return "counters";
    case Status::kException: return "exception";
    case Status::kStall: return "stall";
    case Status::kCrash: return "crash";
  }
  return "?";
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

}  // namespace dcbench
