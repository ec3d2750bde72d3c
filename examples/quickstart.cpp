// Copyright 2026 The pkgstream Authors.
// Quickstart: the smallest end-to-end use of the library.
//
// Builds a skewed key stream, routes it through PARTIAL KEY GROUPING and
// through plain hashing, and prints the resulting worker loads side by
// side — the paper's headline effect in ~60 lines.
//
//   ./examples/quickstart [--workers=8] [--messages=1000000] [--seed=42]

#include <iostream>

#include "common/flags.h"
#include "common/logging.h"
#include "common/table.h"
#include "partition/factory.h"
#include "stats/imbalance.h"
#include "workload/static_distribution.h"
#include "workload/zipf.h"

using namespace pkgstream;

int main(int argc, char** argv) {
  Flags flags;
  PKGSTREAM_CHECK_OK(Flags::Parse(argc, argv, &flags));
  const auto workers =
      static_cast<uint32_t>(flags.GetIntInRange("workers", 8, 1, 4096));
  const uint64_t messages =
      flags.GetIntInRange("messages", 1000000, 1, 1000000000);
  const uint64_t seed = flags.GetIntInRange("seed", 42, 0, kMaxIntFlag);

  // 1. A Zipf workload: few very hot keys, long cold tail.
  auto dist = std::make_shared<workload::StaticDistribution>(
      workload::ZipfWeights(/*num_keys=*/100000, /*exponent=*/1.0), "zipf");
  std::cout << "workload: 100k keys, zipf(1.0), p1 = "
            << FormatFixed(dist->P1() * 100, 1) << "% of " << messages
            << " messages\n\n";

  // 2. Two partitioners: PKG (the paper's contribution) vs hashing (KG).
  partition::PartitionerConfig pkg_config;
  pkg_config.technique = partition::Technique::kPkgLocal;
  pkg_config.workers = workers;
  pkg_config.seed = seed;
  auto pkg = partition::MakePartitioner(pkg_config);
  PKGSTREAM_CHECK_OK(pkg.status());

  partition::PartitionerConfig kg_config = pkg_config;
  kg_config.technique = partition::Technique::kHashing;
  auto kg = partition::MakePartitioner(kg_config);
  PKGSTREAM_CHECK_OK(kg.status());

  // 3. Route the same stream through both and track worker loads.
  workload::IidKeyStream stream(dist, seed);
  std::vector<uint64_t> pkg_loads(workers, 0);
  std::vector<uint64_t> kg_loads(workers, 0);
  for (uint64_t i = 0; i < messages; ++i) {
    Key k = stream.Next();
    ++pkg_loads[(*pkg)->Route(/*source=*/0, k)];
    ++kg_loads[(*kg)->Route(/*source=*/0, k)];
  }

  // 4. Compare.
  Table table({"worker", "PKG load", "KG load"});
  for (uint32_t w = 0; w < workers; ++w) {
    table.AddRow({std::to_string(w), FormatWithCommas(pkg_loads[w]),
                  FormatWithCommas(kg_loads[w])});
  }
  table.Print(std::cout);
  std::cout << "\nimbalance I(m) = max - avg:\n";
  std::cout << "  PKG: " << FormatCompact(stats::ImbalanceOf(pkg_loads))
            << "\n";
  std::cout << "  KG:  " << FormatCompact(stats::ImbalanceOf(kg_loads))
            << "\n";
  std::cout << "\nPKG splits every key over (at most) two workers and picks\n"
               "the less loaded one per message - no coordination, no\n"
               "routing table, near-perfect balance.\n";
  return 0;
}
