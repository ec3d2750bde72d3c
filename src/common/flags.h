// Copyright 2026 The pkgstream Authors.
// A tiny command-line flag parser for examples and benches.
//
// Supports --name=value and --name value forms plus boolean switches
// (--full); positional arguments are collected. Flags a binary does not
// read are ignored, not rejected.
// Scope is deliberately small: binaries in this repo take a handful of
// scalar knobs (seed, scale, workers), not nested configuration.

#ifndef PKGSTREAM_COMMON_FLAGS_H_
#define PKGSTREAM_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace pkgstream {

/// Largest value Flags::GetIntInRange reads (2^63-1); the bound for --seed.
inline constexpr uint64_t kMaxIntFlag =
    static_cast<uint64_t>(std::numeric_limits<int64_t>::max());

/// \brief Parsed command line: flag map plus positional arguments.
class Flags {
 public:
  /// Parses argv. Returns an error for malformed flags (e.g. "--=3").
  static Status Parse(int argc, const char* const* argv, Flags* out);

  /// True if --name was present (with or without a value).
  bool Has(const std::string& name) const;

  /// String value of --name, or `def` when absent.
  std::string GetString(const std::string& name, const std::string& def) const;

  /// Integer value of --name, or `def` when absent or unparseable.
  int64_t GetInt(const std::string& name, int64_t def) const;

  /// Integer value of --name in [min, max], or `def` when absent (or
  /// empty). Anything else — not a whole decimal number, below `min`, above
  /// `max` — prints "flag error: --name=value ..." and exits 2 before the
  /// binary builds anything: cast to an unsigned count, -1 would wrap to
  /// 2^64-1 workers or messages, and GetInt silently reads "4k" as `def`.
  /// `max` is at most kMaxIntFlag.
  uint64_t GetIntInRange(const std::string& name, uint64_t def, uint64_t min,
                         uint64_t max) const;

  /// Double value of --name, or `def` when absent or unparseable.
  double GetDouble(const std::string& name, double def) const;

  /// Boolean: present with no value or value in {1,true,yes,on} is true.
  bool GetBool(const std::string& name, bool def) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// All flag names seen (for unknown-flag warnings in binaries).
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace pkgstream

#endif  // PKGSTREAM_COMMON_FLAGS_H_
