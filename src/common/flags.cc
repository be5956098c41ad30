#include "common/flags.h"

#include <algorithm>
#include <cstdlib>

namespace ealgap {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  return (end && *end == '\0') ? v : def;
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  return (end && *end == '\0') ? v : def;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::vector<std::string> Flags::Unknown(
    const std::vector<std::string>& accepted) const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    if (std::find(accepted.begin(), accepted.end(), name) == accepted.end()) {
      unknown.push_back(name);
    }
  }
  return unknown;
}

}  // namespace ealgap
