// Copyright 2026 The pkgstream Authors.

#include "common/flags.h"

#include <cerrno>
#include <cstdlib>
#include <iostream>

namespace pkgstream {

Status Flags::Parse(int argc, const char* const* argv, Flags* out) {
  out->values_.clear();
  out->positional_.clear();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      out->positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      // A bare "--" separates flags from positionals, POSIX style.
      for (int j = i + 1; j < argc; ++j) out->positional_.push_back(argv[j]);
      break;
    }
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      std::string name = body.substr(0, eq);
      if (name.empty()) {
        return Status::InvalidArgument("malformed flag: " + arg);
      }
      out->values_[name] = body.substr(eq + 1);
      continue;
    }
    // "--name value" form: consume the next token when it is not a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      out->values_[body] = argv[i + 1];
      ++i;
    } else {
      out->values_[body] = "";  // boolean switch
    }
  }
  return Status::OK();
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
  if (it == values_.end() || it->second.empty()) return def;
  char* end = nullptr;
  int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  return (end && *end == '\0') ? v : def;
}

uint64_t Flags::GetIntInRange(const std::string& name, uint64_t def,
                              uint64_t min, uint64_t max) const {
  const std::string text = GetString(name, "");
  if (text.empty()) return def;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE || value < 0 ||
      static_cast<uint64_t>(value) < min ||
      static_cast<uint64_t>(value) > max) {
    std::cerr << "flag error: --" << name << "=" << text
              << " is not an integer in [" << min << ", " << max << "]\n";
    std::exit(2);
  }
  return static_cast<uint64_t>(value);
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return def;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  return (end && *end == '\0') ? v : def;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") {
    return true;
  }
  return false;
}

std::vector<std::string> Flags::Names() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [k, _] : values_) names.push_back(k);
  return names;
}

}  // namespace pkgstream
