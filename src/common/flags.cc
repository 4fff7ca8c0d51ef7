#include "common/flags.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace relmax {
namespace {

std::string EnvName(const std::string& flag) {
  std::string out = "RELMAX_";
  for (char ch : flag) {
    if (ch == '-') {
      out += '_';
    } else {
      out += static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
    }
  }
  return out;
}

[[noreturn]] void Usage(const char* argv0, const char* bad) {
  std::fprintf(stderr,
               "%s: unrecognized argument '%s'\n"
               "flags take the form --name=value, --name value, or --name\n",
               argv0, bad);
  std::exit(2);
}

[[noreturn]] void BadValue(const std::string& program, const std::string& name,
                           const std::string& value, const char* expected) {
  std::fprintf(stderr, "%s: --%s expects %s, got '%s'\n", program.c_str(),
               name.c_str(), expected, value.c_str());
  std::exit(2);
}

}  // namespace

Flags Flags::Parse(int argc, char** argv) {
  Flags flags;
  if (argc > 0) flags.program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) Usage(argv[0], arg);
    std::string body = arg + 2;
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags.values_[body] = argv[++i];
    } else {
      flags.values_[body] = "true";
    }
  }
  return flags;
}

const std::string* Flags::Lookup(const std::string& name) const {
  auto it = values_.find(name);
  if (it != values_.end()) return &it->second;
  auto cached = env_cache_.find(name);
  if (cached != env_cache_.end()) return &cached->second;
  const char* env = std::getenv(EnvName(name).c_str());
  if (env != nullptr) {
    auto [inserted, _] = env_cache_.emplace(name, env);
    return &inserted->second;
  }
  return nullptr;
}

// Both getters reject leading whitespace (strto* would skip it), trailing
// characters, and ERANGE, so a value is used only when all of it was read.
int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  const std::string* v = Lookup(name);
  if (v == nullptr) return def;
  const char* begin = v->c_str();
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(begin, &end, 10);
  if (v->empty() || std::isspace(static_cast<unsigned char>(*begin)) ||
      *end != '\0' || errno == ERANGE) {
    BadValue(program_, name, *v, "a 64-bit integer");
  }
  return value;
}

double Flags::GetDouble(const std::string& name, double def) const {
  const std::string* v = Lookup(name);
  if (v == nullptr) return def;
  const char* begin = v->c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(begin, &end);
  if (v->empty() || std::isspace(static_cast<unsigned char>(*begin)) ||
      *end != '\0' || errno == ERANGE || !std::isfinite(value)) {
    BadValue(program_, name, *v, "a finite number");
  }
  return value;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  const std::string* v = Lookup(name);
  return v == nullptr ? def : *v;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  const std::string* v = Lookup(name);
  if (v == nullptr) return def;
  return *v == "true" || *v == "1" || *v == "yes";
}

bool Flags::Has(const std::string& name) const {
  return Lookup(name) != nullptr;
}

}  // namespace relmax
