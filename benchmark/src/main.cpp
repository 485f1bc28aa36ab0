// dcbench: end-to-end benchmark of the dual-cube simulator.
//
//   dcbench --workload NAME --seed N --seconds T --trace 0|1
//   dcbench --selftest
//
// --trace 0 runs a closed loop for T seconds: one client, no think time,
// ops back to back, in nine fresh child processes that take turns. Each
// child's main() entry to first verified result is a set-up sample; a child
// that stalls or dies is replaced. Prints every end-to-end metric.
//
// --trace 1 runs the layer probes, one child per group, reconciles them
// with the traced op median (the ladder), prints every per-layer metric and
// writes the spans as Chrome-trace JSON under the build directory.
//
// This process never calls the simulator library; only children do, so a
// stalled thread pool costs one op and never the run. The last line of
// stdout is the result object; the line before it is a report with the
// sample counts, failure causes and run header.
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "child.hpp"
#include "wire.hpp"
#include "workloads.hpp"

extern char** environ;

namespace dcbench {
namespace {

using ull = unsigned long long;

constexpr std::uint64_t kMs = 1000000;
constexpr std::uint64_t kSec = 1000 * kMs;
constexpr unsigned kRunChildren = 9;

constexpr const char* kUsage =
    "usage: dcbench --workload NAME --seed N --seconds T [--trace 0|1]\n"
    "       dcbench --selftest\n";

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json. run_ms_tail and items_per_s go to the report
// line only: on a shared host they follow neighbours' load far more than
// the median does (measured spreads in benchmark/README.md).
constexpr MetricDef kEndToEnd[] = {
    {"run_ms_p50", "ms"}, {"setup_s", "s"}, {"peak_rss_mb", "MiB"}};
constexpr MetricDef kUngated[] = {{"run_ms_tail", "ms"}, {"items_per_s", "items/s"}};

constexpr MetricDef kPerLayer[] = {
    {"pool.chunked_job_us", "us"},
    {"pool.affine_job_us", "us"},
    {"pool.inline_job_us", "us"},
    {"pool.steals_per_op", "count/op"},
    {"pool.stalls", "count"},
    {"pool.alt_jobs_to_stall", "count"},
    {"topology.build_ms", "ms"},
    {"topology.csr_ms", "ms"},
    {"machine.ctor_us", "us"},
    {"schedule.record_ms", "ms"},
    {"schedule.store_load_ms", "ms"},
    {"schedule.bytes", "bytes"},
    {"schedule.hit_ratio", "ratio"},
    {"interp.cycle_us", "us"},
    {"interp.novalidate_cycle_us", "us"},
    {"replay.cycle_us", "us"},
    {"replay.gbps_computed", "GB/s"},
    {"replay.cycles_per_op", "count"},
    {"compute.step_us", "us"},
    {"kernel.merge_split_ns", "ns"},
    {"kernel.merge_split_mkeys_per_s", "Mkeys/s"},
    {"shard.incore_run_ms", "ms"},
    {"shard.ooc_share", "ratio"},
    {"shard.predicted_resident_mb", "MiB"},
    {"shard.rss_over_predicted", "ratio"},
    {"model.comm_cycles", "count"},
    {"model.comp_steps", "count"},
    {"model.messages", "count"},
    {"model.ops", "count"},
    {"ladder.explained_ms", "ms"},
    {"ladder.unexplained_ms", "ms"},
    {"ladder.explained_frac", "ratio"},
    {"trace.run_ms_p50", "ms"},
    {"trace.overhead", "ratio"},
};

class UsageError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

std::string dir_of(const std::string& path) {
  return path.substr(0, path.find_last_of('/'));
}

// ---- child processes ---------------------------------------------------

/// One spawned child and the read end of its report pipe. The destructor
/// kills and reaps a child that was never reaped.
class ChildProc {
 public:
  enum class Read { kLine, kTimeout, kEof };

  ChildProc(const std::vector<std::string>& argv,
            const std::vector<std::string>& env) {
    int p[2];
    if (::pipe2(p, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    // Move both ends clear of the descriptor the child reports on.
    fd_ = ::fcntl(p[0], F_DUPFD_CLOEXEC, 10);
    const int wfd = ::fcntl(p[1], F_DUPFD_CLOEXEC, 10);
    ::close(p[0]);
    ::close(p[1]);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, wfd, kReportFd);
    posix_spawn_file_actions_adddup2(&fa, 2, 1);  // keep stdout for the result
    std::vector<char*> av, ev;
    for (const std::string& s : argv) av.push_back(const_cast<char*>(s.c_str()));
    for (const std::string& s : env) ev.push_back(const_cast<char*>(s.c_str()));
    av.push_back(nullptr);
    ev.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, av[0], &fa, nullptr, av.data(), ev.data());
    posix_spawn_file_actions_destroy(&fa);
    ::close(wfd);
    if (rc != 0) {
      ::close(fd_);
      throw std::runtime_error(std::string("posix_spawn: ") + std::strerror(rc));
    }
  }
  ~ChildProc() {
    try {
      if (!reaped_) reap(true);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dcbench: reaping a child failed: %s\n", e.what());
    }
    ::close(fd_);
  }
  ChildProc(const ChildProc&) = delete;
  ChildProc& operator=(const ChildProc&) = delete;

  /// The next report line, or kTimeout when none arrives before
  /// `deadline` (steady-clock ns), or kEof once the child closed the pipe.
  Read read_line(std::uint64_t deadline, std::string& line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return Read::kLine;
      }
      if (eof_) return Read::kEof;
      const std::uint64_t now = now_ns();
      if (now >= deadline) return Read::kTimeout;
      pollfd pfd{fd_, POLLIN, 0};
      const auto wait_ms =
          static_cast<int>(std::min<std::uint64_t>((deadline - now + kMs - 1) / kMs, 60000));
      const int rc = ::poll(&pfd, 1, wait_ms);
      if (rc < 0 && errno != EINTR) throw std::runtime_error("poll failed");
      if (rc <= 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno != EINTR) throw std::runtime_error("read failed");
      if (n == 0) eof_ = true;
      if (n > 0) buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Waits for the child to end, killing it first when asked or when it
  /// has not exited 5 s after closing its pipe. Returns the wait status and
  /// stores the child's peak RSS (KiB).
  int reap(bool kill_first, long* maxrss_kb = nullptr) {
    if (kill_first) ::kill(pid_, SIGKILL);
    const std::uint64_t give_up = now_ns() + 5 * kSec;
    int status = 0;
    rusage ru{};
    for (;;) {
      const pid_t r = ::wait4(pid_, &status, kill_first ? 0 : WNOHANG, &ru);
      if (r == pid_) break;
      if (r < 0 && errno != EINTR) throw std::runtime_error("wait4 failed");
      if (r == 0 && now_ns() > give_up) {
        ::kill(pid_, SIGKILL);
        kill_first = true;
      } else if (r == 0) {
        ::usleep(2000);
      }
    }
    reaped_ = true;
    if (maxrss_kb) *maxrss_kb = ru.ru_maxrss;
    return status;
  }

 private:
  pid_t pid_ = -1;
  int fd_ = -1;
  std::string buf_;
  bool eof_ = false;
  bool reaped_ = false;
};

/// How long the parent waits for a child's next message.
enum class Wait {
  kOps,       ///< op children: max(250 ms, 50 x the running median op)
  kProbe,     ///< probe groups: max(2 s, 50 x the untraced op median)
  kProgress,  ///< the stall probe: 250 ms between progress reports
};

struct SpanRec {
  std::string group, name;
  std::uint32_t id, parent;
  std::uint64_t start, end;
};

/// Everything the children of one workload run reported.
struct Tally {
  std::vector<double> warm_ms, cold_ms, setup_s;
  double items = 0, items_ns = 0;
  long max_rss_kb = 0;
  unsigned children = 0;
  std::uint64_t attempted = 0, ok = 0, stalls = 0;
  std::map<std::string, std::uint64_t> failed;  ///< cause -> ops
  /// Model counts (comm, comp, messages, ops) of the first verified op of
  /// each scope; later ops must match exactly.
  std::map<std::string, std::array<std::uint64_t, 4>> pins;
  std::size_t pool_size = 0;
  std::string isa;

  std::uint64_t failed_total() const {
    std::uint64_t n = 0;
    for (const auto& [cause, k] : failed) n += k;
    return n;
  }
};

struct ChildEnd {
  bool clean = false;        ///< sent E and exited 0
  bool stalled = false;      ///< killed by the watchdog
  std::uint64_t next_op = 0; ///< first op index for the next child
  std::uint64_t progress = 0;
};

class Runner {
 public:
  Runner(const Workload& w, std::uint64_t seed, std::string inject = {},
         bool quiet = false)
      : w_(w), seed_(seed), inject_(std::move(inject)), quiet_(quiet),
        exe_(exe_path()), build_dir_(dir_of(exe_)) {
    const std::string tmp = build_dir_ + "/tmp";
    ::mkdir(tmp.c_str(), 0755);
    // Children get DC_THREADS from the workload and never inherit any DC_*
    // setting; temp files (shard spill, schedule store) stay in the build
    // directory.
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string_view kv(*e);
      if (kv.starts_with("DC_") || kv.starts_with("TMPDIR=")) continue;
      env_.emplace_back(kv);
    }
    env_.push_back("DC_THREADS=" + std::to_string(w.threads));
    env_.push_back("TMPDIR=" + tmp);
  }

  const std::string& build_dir() const { return build_dir_; }

  /// Spawns one child and follows its reports until it ends, stalls or
  /// dies. An op in flight when it stalls or dies counts as failed.
  ChildEnd watch(const char* mode, std::uint64_t first_op, std::uint64_t until,
                 const std::string& group, Wait wait) {
    std::vector<std::string> argv = {
        exe_, "--child", mode, "--workload", w_.name, "--seed",
        std::to_string(seed_), "--first-op", std::to_string(first_op),
        "--until", std::to_string(until)};
    if (!group.empty()) argv.insert(argv.end(), {"--group", group});
    if (!inject_.empty()) argv.insert(argv.end(), {"--inject", inject_});
    ChildProc child(argv, env_);
    ++tally.children;
    ChildEnd end;
    end.next_op = first_op;
    State st;
    const std::uint64_t spawned = now_ns();
    std::uint64_t last = spawned;
    for (;;) {
      std::uint64_t deadline = spawned + 10 * kSec;
      if (st.hello && wait == Wait::kOps) {
        deadline = last + patience(st.got_op ? tally.warm_ms : tally.cold_ms);
      } else if (st.hello && wait == Wait::kProbe) {
        deadline = last + probe_patience;
      } else if (st.hello && end.progress > 0) {
        deadline = last + 250 * kMs;
      }
      std::string line;
      const ChildProc::Read r = child.read_line(deadline, line);
      if (r == ChildProc::Read::kLine) {
        last = now_ns();
        on_line(line, group, st, end);
        continue;
      }
      long rss = 0;
      if (r == ChildProc::Read::kTimeout) {
        child.reap(true, &rss);
        tally.max_rss_kb = std::max(tally.max_rss_kb, rss);
        end.stalled = true;
        ++tally.stalls;
        log("%s %s child stalled at op %llu; killed", mode, group.c_str(),
            ull{end.next_op});
        if (wait == Wait::kOps) fail(end.next_op++, Status::kStall);
        return end;
      }
      const int status = child.reap(false, &rss);
      tally.max_rss_kb = std::max(tally.max_rss_kb, rss);
      end.clean = st.ended && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (!end.clean) {
        log("%s %s child ended early at op %llu (wait status %d)", mode,
            group.c_str(), ull{end.next_op}, status);
        if (wait == Wait::kOps && !st.threw) fail(end.next_op++, Status::kCrash);
      }
      return end;
    }
  }

  /// Runs ops back to back for `seconds`, in kRunChildren fresh children
  /// that each own an equal slot of the run; a child that stalls or dies is
  /// replaced within its slot. Every child's main() entry to first verified
  /// result is one setup_s sample, so set-up, like the ops, is sampled
  /// across the whole run: on a shared host, neighbours' load comes and
  /// goes over seconds.
  void run_for(double seconds) {
    const auto total = static_cast<std::uint64_t>(seconds * 1e9);
    const std::uint64_t start = now_ns();
    std::uint64_t next = 0;
    unsigned barren = 0;
    for (unsigned slot = 1; now_ns() < start + total;) {
      const std::uint64_t slot_end = start + total * slot / kRunChildren;
      const std::uint64_t before = tally.ok;
      next = watch("run", next, slot_end, "", Wait::kOps).next_op;
      if (now_ns() >= slot_end) ++slot;
      barren = tally.ok == before ? barren + 1 : 0;
      if (barren >= 20) throw std::runtime_error("20 children in a row verified no op");
    }
  }

  Tally tally;
  std::map<std::string, double> metrics;
  std::vector<SpanRec> spans;
  std::uint64_t probe_patience = 10 * kSec;

 private:
  struct State {
    bool hello = false, got_op = false, last_ok = false, ended = false,
         threw = false;
  };

  [[gnu::format(printf, 2, 3)]] void log(const char* fmt, ...) const {
    if (quiet_) return;
    std::fprintf(stderr, "dcbench: ");
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
  }

  static std::uint64_t patience(const std::vector<double>& ms) {
    if (ms.empty()) return 10 * kSec;
    return std::max<std::uint64_t>(
        250 * kMs, static_cast<std::uint64_t>(50.0 * median(ms) * 1e6));
  }

  void fail(std::uint64_t index, Status s) {
    ++tally.attempted;
    ++tally.failed[status_name(s)];
    log("op %llu failed: %s", ull{index}, status_name(s));
  }

  void on_line(const std::string& line, const std::string& group, State& st,
               ChildEnd& end) {
    const char* p = line.c_str();
    switch (line.empty() ? '\0' : line[0]) {
      case 'H': {
        std::size_t pool = 0;
        char isa[32] = {};
        if (std::sscanf(p, "H %zu %31s", &pool, isa) != 2) break;
        st.hello = true;
        if (pool != w_.threads) {
          throw std::runtime_error("child pool has " + std::to_string(pool) +
                                   " workers, expected DC_THREADS=" +
                                   std::to_string(w_.threads));
        }
        if (tally.pool_size == 0 && !quiet_) {
          std::printf("# dcbench workload=%s seed=%llu DC_THREADS=%u pool=%zu "
                      "nproc=%ld simd=%s\n",
                      w_.name, ull{seed_}, w_.threads, pool,
                      ::sysconf(_SC_NPROCESSORS_ONLN), isa);
        }
        tally.pool_size = pool;
        tally.isa = isa;
        return;
      }
      case 'O': {
        ull idx = 0, wall = 0, items = 0;
        int cold = 0;
        char status[32] = {};
        std::array<ull, 4> c{};
        if (std::sscanf(p, "O %llu %llu %llu %d %31s %llu %llu %llu %llu", &idx,
                        &wall, &items, &cold, status, &c[0], &c[1], &c[2],
                        &c[3]) != 9)
          break;
        st.got_op = true;
        end.next_op = idx + 1;
        ++tally.attempted;
        std::string cause = status;
        if (cause == "ok") {
          const std::array<std::uint64_t, 4> model{c[0], c[1], c[2], c[3]};
          const auto [pin, fresh] = tally.pins.try_emplace(group, model);
          if (!fresh && pin->second != model) cause = "counters";
        }
        st.last_ok = cause == "ok";
        if (!st.last_ok) {
          st.threw = cause == "exception";
          ++tally.failed[cause];
          log("op %llu failed: %s", idx, cause.c_str());
          return;
        }
        ++tally.ok;
        const double ms = static_cast<double>(wall) / 1e6;
        if (cold != 0) {
          tally.cold_ms.push_back(ms);
        } else {
          tally.warm_ms.push_back(ms);
          tally.items += static_cast<double>(items);
          tally.items_ns += static_cast<double>(wall);
        }
        return;
      }
      case 'S': {
        ull ns = 0;
        if (std::sscanf(p, "S %llu", &ns) != 1) break;
        if (st.last_ok) tally.setup_s.push_back(static_cast<double>(ns) / 1e9);
        return;
      }
      case 'P': {
        ull v = 0;
        if (std::sscanf(p, "P %llu", &v) != 1) break;
        end.progress = v;
        return;
      }
      case 'M': {
        char name[64] = {};
        double v = 0;
        if (std::sscanf(p, "M %63s %lf", name, &v) != 2) break;
        metrics[name] = v;
        return;
      }
      case 'T': {
        SpanRec s;
        ull start = 0, stop = 0;
        char name[64] = {};
        if (std::sscanf(p, "T %u %u %llu %llu %63s", &s.id, &s.parent, &start,
                        &stop, name) != 5)
          break;
        s.group = group;
        s.name = name;
        s.start = start;
        s.end = stop;
        spans.push_back(std::move(s));
        return;
      }
      case 'E':
        st.ended = true;
        return;
      default:
        break;
    }
    throw std::runtime_error("malformed child report: " + line);
  }

  const Workload& w_;
  std::uint64_t seed_;
  std::string inject_;
  bool quiet_;
  std::string exe_, build_dir_;
  std::vector<std::string> env_;
};

// ---- output ---------------------------------------------------------------

std::string metric_json(const MetricDef& m, double v) {
  return "\"" + std::string(m.name) + "\": {\"value\": " + num(v) +
         ", \"unit\": \"" + m.unit + "\"}";
}

/// Prints the report line and the result line (the last line of stdout).
void print_result(const Workload& w, std::uint64_t seed, double seconds,
                  int trace, const Tally& t, const std::string& metrics_json,
                  const std::string& extra) {
  std::string failed;
  for (const Status s : {Status::kWrong, Status::kCounters, Status::kException,
                         Status::kStall, Status::kCrash}) {
    const auto it = t.failed.find(status_name(s));
    failed += std::string(failed.empty() ? "" : ", ") + "\"" + status_name(s) +
              "\": " + std::to_string(it == t.failed.end() ? 0 : it->second);
  }
  std::printf(
      "{\"dcbench\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"dc_threads\": %u, \"pool_size\": %zu, \"nproc\": %ld, "
      "\"simd\": \"%s\", \"children\": %u, \"ok\": %llu, \"failed\": {%s}%s}}\n",
      w.name, ull{seed}, num(seconds).c_str(), trace, w.threads, t.pool_size,
      ::sysconf(_SC_NPROCESSORS_ONLN), t.isa.c_str(), t.children, ull{t.ok},
      failed.c_str(), extra.c_str());
  const auto bad = [&](const char* cause) {
    const auto it = t.failed.find(cause);
    return it != t.failed.end() && it->second > 0;
  };
  const bool correct = t.ok > 0 && !bad("wrong") && !bad("counters");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", ull{t.attempted},
              ull{t.failed_total()}, metrics_json.c_str());
  std::fflush(stdout);
}

int run_untraced(const Workload& w, std::uint64_t seed, double seconds) {
  Runner drv(w, seed);
  drv.run_for(seconds);
  const Tally& t = drv.tally;
  if (t.warm_ms.empty() || t.setup_s.empty())
    throw std::runtime_error("no verified op to measure");

  const double values[] = {median(t.warm_ms), median(t.setup_s),
                           static_cast<double>(t.max_rss_kb) / 1024.0};
  const std::size_t samples[] = {t.warm_ms.size(), t.setup_s.size(), t.children};
  std::string metrics, counts;
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    metrics += (i ? ", " : "") + metric_json(kEndToEnd[i], values[i]);
    counts += std::string(i ? ", " : "") + "\"" + kEndToEnd[i].name +
              "\": " + std::to_string(samples[i]);
  }
  // The tail is the highest quantile with >= 10 samples beyond it at the
  // workload's fixed run length; throughput is items over summed wall time.
  const double ungated[] = {quantile(t.warm_ms, w.tail_q),
                            t.items / (t.items_ns / 1e9)};
  std::string ungated_json;
  for (std::size_t i = 0; i < std::size(kUngated); ++i) {
    ungated_json += (i ? ", " : "") + metric_json(kUngated[i], ungated[i]);
    counts += std::string(", \"") + kUngated[i].name +
              "\": " + std::to_string(t.warm_ms.size());
  }
  std::string extra = ", \"samples\": {" + counts + "}, \"ungated\": {" +
                      ungated_json + "}, \"tail_quantile\": " + num(w.tail_q);
  const auto pin = t.pins.find("");
  if (pin != t.pins.end()) {
    const auto& m = pin->second;
    extra += ", \"model\": {\"comm_cycles\": " + std::to_string(m[0]) +
             ", \"comp_steps\": " + std::to_string(m[1]) +
             ", \"messages\": " + std::to_string(m[2]) +
             ", \"ops\": " + std::to_string(m[3]) + "}";
  }
  print_result(w, seed, seconds, 0, t, metrics, extra);
  return 0;
}

/// Writes the traced run's spans as Chrome-trace JSON: one track per group.
void write_chrome_trace(const std::string& path, const std::vector<SpanRec>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const SpanRec& s : spans) t0 = std::min(t0, s.start);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t g = 0; g < std::size(kTraceGroups); ++g) {
    out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
        << g + 1 << ", \"args\": {\"name\": \"" << kTraceGroups[g] << "\"}},\n";
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    std::size_t tid = 0;
    while (tid < std::size(kTraceGroups) && s.group != kTraceGroups[tid]) ++tid;
    out << "{\"name\": \"" << s.name << "\", \"cat\": \"" << s.group
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid + 1
        << ", \"ts\": " << num(static_cast<double>(s.start - t0) / 1e3)
        << ", \"dur\": " << num(static_cast<double>(s.end - s.start) / 1e3)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

int run_traced(const Workload& w, std::uint64_t seed, double seconds) {
  Runner drv(w, seed);
  std::uint64_t next = 0;
  for (const std::string group : kTraceGroups) {
    const Wait wait = group == "ops"     ? Wait::kOps
                      : group == "stall" ? Wait::kProgress
                                         : Wait::kProbe;
    // A stalled group is retried in a fresh child; the stall probe's count
    // at the stall is its result.
    for (int attempt = 0; attempt < 5; ++attempt) {
      const ChildEnd e = drv.watch("trace", next, 0, group, wait);
      next = e.next_op;
      if (group == "stall" && e.stalled) {
        drv.metrics["pool.alt_jobs_to_stall"] = static_cast<double>(e.progress);
        break;
      }
      if (e.clean) break;
    }
    if (group == "ops" && drv.metrics.count("ops.untraced_ms")) {
      drv.probe_patience = std::max<std::uint64_t>(
          2 * kSec,
          static_cast<std::uint64_t>(50.0 * drv.metrics["ops.untraced_ms"] * 1e6));
    }
  }
  auto& m = drv.metrics;
  m["pool.stalls"] = static_cast<double>(drv.tally.stalls);
  const auto has = [&](std::initializer_list<const char*> names) {
    for (const char* n : names)
      if (!m.count(n)) return false;
    return true;
  };
  // The ladder: cycles x replay cycle + steps x compute step + one Machine,
  // against the traced op median it should add up to.
  if (has({"model.comm_cycles", "replay.cycle_us", "model.comp_steps",
           "compute.step_us", "machine.ctor_us", "trace.run_ms_p50",
           "ops.untraced_ms"})) {
    const double explained =
        (m["model.comm_cycles"] * m["replay.cycle_us"] +
         m["model.comp_steps"] * m["compute.step_us"] + m["machine.ctor_us"]) /
        1e3;
    m["ladder.explained_ms"] = explained;
    m["ladder.unexplained_ms"] = m["trace.run_ms_p50"] - explained;
    m["ladder.explained_frac"] = explained / m["trace.run_ms_p50"];
    m["trace.overhead"] = m["trace.run_ms_p50"] / m["ops.untraced_ms"];
  }

  const std::string path = drv.build_dir() + "/traces/" + w.name + "-seed" +
                           std::to_string(seed) + ".json";
  ::mkdir((drv.build_dir() + "/traces").c_str(), 0755);
  write_chrome_trace(path, drv.spans);

  std::string metrics, missing;
  for (const MetricDef& d : kPerLayer) {
    const auto it = m.find(d.name);
    if (it == m.end() || !std::isfinite(it->second)) {
      missing += std::string(missing.empty() ? "" : ", ") + "\"" + d.name + "\"";
      continue;
    }
    metrics += (metrics.empty() ? "" : ", ") + metric_json(d, it->second);
  }
  print_result(w, seed, seconds, 1, drv.tally, metrics,
               ", \"trace_file\": \"" + path + "\", \"missing\": [" + missing + "]");
  return 0;
}

/// The negative self-test: each planted fault must surface as failed ops
/// of exactly its cause, and the clean run must fail none.
int selftest() {
  const Workload& w = *find_workload("prefix_d8_t1");
  struct Case {
    const char* inject;
    const char* cause;
    bool once;  ///< the fault hits op 3 only
  };
  const Case cases[] = {{"", nullptr, false},          {"wrong", "wrong", false},
                        {"counters", "counters", false}, {"stall", "stall", true},
                        {"crash", "crash", true},        {"exception", "exception", true}};
  bool all = true;
  for (const Case& c : cases) {
    Runner drv(w, 1, c.inject, /*quiet=*/true);
    drv.run_for(0.6);
    const Tally& t = drv.tally;
    const std::uint64_t total = t.failed_total();
    const auto it = c.cause ? t.failed.find(c.cause) : t.failed.end();
    const std::uint64_t hit = it == t.failed.end() ? 0 : it->second;
    const bool pass = t.ok > 0 && (c.cause == nullptr
                                       ? total == 0
                                       : hit == total && (c.once ? hit == 1 : hit > 0));
    all = all && pass;
    std::printf("selftest %-10s attempted=%-4llu ok=%-4llu failed=%-3llu (%s=%llu) %s\n",
                c.inject[0] ? c.inject : "none", ull{t.attempted}, ull{t.ok},
                ull{total}, c.cause ? c.cause : "any", ull{c.cause ? hit : total},
                pass ? "PASS" : "FAIL");
  }
  std::printf("selftest: %s\n", all ? "PASS" : "FAIL");
  return all ? 0 : 1;
}

// ---- arguments --------------------------------------------------------------

struct Args {
  std::string workload, child, group, inject;
  std::uint64_t seed = 0, first_op = 0, until = 0;
  double seconds = 0;
  int trace = 0;
  bool selftest = false, have_seed = false, have_seconds = false;
};

template <typename T>
T parse_number(const std::string& key, const std::string& v) {
  T out{};
  const auto r = std::from_chars(v.data(), v.data() + v.size(), out);
  if (r.ec != std::errc() || r.ptr != v.data() + v.size())
    throw UsageError("bad value for --" + key + ": '" + v + "'");
  return out;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw UsageError("unexpected argument '" + key + "'");
    key.erase(0, 2);
    if (key == "selftest") {
      a.selftest = true;
      continue;
    }
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw UsageError("--" + key + " needs a value");
    }
    if (key == "workload") {
      a.workload = value;
    } else if (key == "seed") {
      a.seed = parse_number<std::uint64_t>(key, value);
      a.have_seed = true;
    } else if (key == "seconds") {
      a.seconds = parse_number<double>(key, value);
      a.have_seconds = true;
    } else if (key == "trace") {
      a.trace = parse_number<int>(key, value);
    } else if (key == "child") {
      a.child = value;
    } else if (key == "group") {
      a.group = value;
    } else if (key == "inject") {
      a.inject = value;
    } else if (key == "first-op") {
      a.first_op = parse_number<std::uint64_t>(key, value);
    } else if (key == "until") {
      a.until = parse_number<std::uint64_t>(key, value);
    } else {
      throw UsageError("unknown option --" + key);
    }
  }
  return a;
}

}  // namespace
}  // namespace dcbench

int main(int argc, char** argv) {
  const std::uint64_t t_main = dcbench::now_ns();  // setup_s starts here
  using namespace dcbench;
  try {
    const Args a = parse_args(argc, argv);
    const Workload* w = find_workload(a.workload);
    if (!a.child.empty()) {
      if (w == nullptr) throw UsageError("unknown workload");
      ChildArgs c{w, a.seed, a.child, a.group, a.inject, a.first_op, a.until};
      const int rc = child_main(c, t_main);
      std::fflush(nullptr);
      std::_Exit(rc);  // skip static destructors: a stalled pool never joins
    }
    if (a.selftest) return selftest();
    if (w == nullptr) throw UsageError("unknown workload '" + a.workload + "'");
    if (!a.have_seed) throw UsageError("--seed is required");
    if (!a.have_seconds || !(a.seconds > 0)) throw UsageError("--seconds must be > 0");
    if (a.trace != 0 && a.trace != 1) throw UsageError("--trace must be 0 or 1");
    return a.trace == 1 ? run_traced(*w, a.seed, a.seconds)
                        : run_untraced(*w, a.seed, a.seconds);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "dcbench: %s\n%s", e.what(), kUsage);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dcbench: %s\n", e.what());
    return 1;
  }
}
