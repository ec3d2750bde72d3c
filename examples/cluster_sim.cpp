// Copyright 2026 The pkgstream Authors.
// A one-command tour of the simulated Storm-like cluster (the Q4 substrate):
// runs the word-count topology at a chosen CPU delay under PKG, SG and KG
// and prints throughput, latency percentiles, utilization and memory —
// everything Figure 5 is built from.
//
//   ./examples/cluster_sim [--delay_ms=0.4] [--workers=9] [--messages=100000]

#include <iostream>

#include "common/flags.h"
#include "common/logging.h"
#include "common/table.h"
#include "simulation/experiments.h"

using namespace pkgstream;

int main(int argc, char** argv) {
  Flags flags;
  PKGSTREAM_CHECK_OK(Flags::Parse(argc, argv, &flags));
  const double delay_ms = flags.GetDouble("delay_ms", 0.4);
  const auto workers =
      static_cast<uint32_t>(flags.GetIntInRange("workers", 9, 1, 4096));
  const uint64_t messages =
      flags.GetIntInRange("messages", 100000, 1, 1000000000);
  const uint64_t seed = flags.GetIntInRange("seed", 42, 0, kMaxIntFlag);

  std::cout << "simulated cluster: 1 spout, " << workers
            << " counters (+1 aggregator), CPU delay "
            << FormatFixed(delay_ms, 1) << " ms/key, WP-like workload, "
            << FormatWithCommas(messages) << " keys\n\n";

  Table table({"technique", "keys/s", "mean lat (ms)", "p99 lat (ms)",
               "max counter util", "counters held"});
  for (auto [technique, label] :
       {std::pair{partition::Technique::kPkgLocal, "PKG"},
        std::pair{partition::Technique::kShuffle, "SG"},
        std::pair{partition::Technique::kHashing, "KG"}}) {
    auto report = simulation::RunWordCountCluster(
        technique, workers, delay_ms, /*aggregation_us=*/0, messages,
        workload::DatasetId::kWP, /*scale=*/0.02, seed);
    PKGSTREAM_CHECK_OK(report.status());
    // Node 1 is the counter PE in the word-count topology.
    table.AddRow(
        {label, FormatFixed(report->throughput_per_s, 0),
         FormatFixed(report->mean_latency_us / 1000.0, 1),
         FormatFixed(static_cast<double>(report->p99_latency_us) / 1000.0, 1),
         FormatFixed(report->max_utilization[1] * 100.0, 0) + "%",
         FormatWithCommas(report->peak_memory_counters)});
  }
  table.Print(std::cout);
  std::cout << "\nKG's hottest counter saturates first (utilization -> 100%),\n"
               "queueing delay inflates its latency, and the bounded spout\n"
               "window turns that into a throughput loss — the Figure 5(a)\n"
               "mechanism, observable here at any delay you pass in.\n";
  return 0;
}
