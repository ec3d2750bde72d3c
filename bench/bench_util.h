// Copyright 2026 The pkgstream Authors.
// Shared plumbing for the experiment binaries in bench/: flag handling and
// banner printing. Output/export goes through bench/report.h, which emits
// both the console tables and the machine-checked JSON report.

#ifndef PKGSTREAM_BENCH_BENCH_UTIL_H_
#define PKGSTREAM_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "common/table.h"

namespace pkgstream {
namespace bench {

/// \brief Common flags for every experiment binary.
struct BenchArgs {
  uint64_t seed = 42;
  bool full = false;         ///< --full: paper-scale run (slow)
  std::string csv;           ///< --csv=PATH: also export the tables as CSV
  std::string json;          ///< --json=PATH: structured report (report.h)
  bool quick = false;        ///< --quick: extra-small run (CI smoke)
  Flags flags;               ///< the whole command line, for bench flags
};

inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  Flags& flags = args.flags;
  Status s = Flags::Parse(argc, argv, &flags);
  if (!s.ok()) {
    std::cerr << "flag error: " << s << "\n";
    std::exit(2);
  }
  args.seed = flags.GetIntInRange("seed", 42, 0, kMaxIntFlag);
  args.full = flags.GetBool("full", false);
  args.quick = flags.GetBool("quick", false);
  if (args.full && args.quick) {
    // The scales contradict (and individual benches resolve the conflict
    // inconsistently); a report stamped with the wrong scale would then
    // diff against the wrong baseline.
    std::cerr << "flag error: --quick and --full are mutually exclusive\n";
    std::exit(2);
  }
  args.csv = flags.GetString("csv", "");
  args.json = flags.GetString("json", "");
  return args;
}

/// Upper bounds for the open-loop benches' integer flags (read with
/// Flags::GetIntInRange as [1, bound]), so that a typo cannot start
/// thousands of threads or allocate gigabytes: --shards and
/// bench_latency_under_load's --workers each become shard threads, the
/// message caps sit 100x above the --full runs, and past kMaxServiceUs the
/// sinks' virtual clocks could overflow.
inline constexpr uint64_t kMaxThreads = 64;
inline constexpr uint64_t kMaxMessages = 10000000;
inline constexpr uint64_t kMaxCellMs = 60000;
inline constexpr uint64_t kMaxServiceUs = 1000000000;

inline void PrintBanner(const std::string& title, const std::string& paper_ref,
                        const BenchArgs& args) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "reproduces: " << paper_ref << "\n";
  std::cout << "seed=" << args.seed
            << (args.full ? "  scale=FULL (paper scale)"
                          : (args.quick ? "  scale=quick" : "  scale=default"))
            << "\n\n";
}

}  // namespace bench
}  // namespace pkgstream

#endif  // PKGSTREAM_BENCH_BENCH_UTIL_H_
