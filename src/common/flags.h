#ifndef EALGAP_COMMON_FLAGS_H_
#define EALGAP_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

namespace ealgap {

/// Minimal command-line flag parser for the bench/example binaries.
///
/// Accepts `--name=value`, `--name value`, and bare `--name` (boolean true).
/// Anything not starting with `--` is collected as a positional argument.
class Flags {
 public:
  /// Parses argv (argv[0] is skipped).
  Flags(int argc, const char* const* argv);

  /// True when the flag appeared at all.
  bool Has(const std::string& name) const;

  /// Typed getters with defaults; malformed numeric values fall back to the
  /// default (the binaries treat flags as a convenience, not an API).
  std::string GetString(const std::string& name,
                        const std::string& def = "") const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def = false) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Names of the flags given that are not in `accepted`, sorted. Callers
  /// that reject unknown flags use this instead of silently ignoring them.
  std::vector<std::string> Unknown(
      const std::vector<std::string>& accepted) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace ealgap

#endif  // EALGAP_COMMON_FLAGS_H_
