// Tiny command-line flag parser for the bench/example binaries.
// Supports --name=value and --name value forms plus boolean switches.
// Unknown flags are an error so typos do not silently change an experiment.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace dc {

/// A malformed command line. Derives from CheckError; what() is the exact
/// one-line message — no check expression, no source path — so a CLI can
/// print it as is.
class UsageError : public CheckError {
 public:
  explicit UsageError(const std::string& what) : CheckError(what) {}
};

class Cli {
 public:
  /// Parses argv; throws dc::UsageError on malformed input.
  Cli(int argc, const char* const* argv);

  /// Integer flag with a default.
  std::int64_t get_int(const std::string& name, std::int64_t fallback);

  /// String flag with a default.
  std::string get_string(const std::string& name, const std::string& fallback);

  /// Boolean switch (--name or --name=true/false).
  bool get_bool(const std::string& name, bool fallback);

  /// Call after all get_* calls: throws UsageError("unknown flag --x") if
  /// any flag was never consumed.
  void finish() const;

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> consumed_;
};

}  // namespace dc
