#ifndef RELMAX_COMMON_FLAGS_H_
#define RELMAX_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>

namespace relmax {

/// Minimal command-line flag parser for the bench harness and examples.
///
/// Accepts `--name=value` and `--name value` forms plus bare `--name`
/// booleans. Unknown positional arguments are rejected so typos fail loudly.
/// Values can also be supplied via environment variables named
/// `RELMAX_<NAME>` (upper-cased, dashes to underscores); explicit flags win.
class Flags {
 public:
  /// Parses argv. Exits with status 2 and a usage message on malformed
  /// input.
  static Flags Parse(int argc, char** argv);

  /// Integer flag with default. The whole value must parse as a base-10
  /// int64; anything else (`abc`, `12x`, out of range) exits with status 2
  /// and a message naming the flag.
  int64_t GetInt(const std::string& name, int64_t def) const;
  /// Floating-point flag with default. The whole value must parse as a
  /// finite double; anything else exits with status 2 like GetInt.
  double GetDouble(const std::string& name, double def) const;
  /// String flag with default.
  std::string GetString(const std::string& name, const std::string& def) const;
  /// Boolean flag: present without value, or =true/=false/=1/=0.
  bool GetBool(const std::string& name, bool def) const;

  bool Has(const std::string& name) const;

 private:
  // Returns flag value, env value, or nullptr.
  const std::string* Lookup(const std::string& name) const;

  // argv[0], named in error messages.
  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, std::string> env_cache_;
};

}  // namespace relmax

#endif  // RELMAX_COMMON_FLAGS_H_
