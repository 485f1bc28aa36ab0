#include "support/cli.hpp"

#include <charconv>

#include "support/check.hpp"

namespace dc {

Cli::Cli(int argc, const char* const* argv) {
  DC_REQUIRE(argc >= 1, "argc must be >= 1");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw UsageError("expected --flag, got '" + arg + "'");
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    std::string name;
    std::string value;
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      name = arg;
      value = argv[++i];
    } else {
      name = arg;
      value = "true";  // boolean switch
    }
    if (name.empty()) throw UsageError("empty flag name");
    values_[name] = value;
    consumed_[name] = false;
  }
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  consumed_[name] = true;
  std::int64_t out = 0;
  const auto& s = it->second;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    throw UsageError("flag --" + name + " expects an integer, got '" + s + "'");
  return out;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  consumed_[name] = true;
  return it->second;
}

bool Cli::get_bool(const std::string& name, bool fallback) {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  consumed_[name] = true;
  const auto& s = it->second;
  if (s != "true" && s != "false" && s != "1" && s != "0")
    throw UsageError("flag --" + name + " expects a boolean, got '" + s + "'");
  return s == "true" || s == "1";
}

void Cli::finish() const {
  for (const auto& [name, used] : consumed_) {
    if (!used) throw UsageError("unknown flag --" + name);
  }
}

}  // namespace dc
