// Copyright 2026 The pkgstream Authors.
// The breaking point of two choices — and the fix.
//
// Section IV proves PKG balances only while the hottest key's probability
// stays under ~2/W: its two candidate workers must absorb p1/2 of the
// stream each. This example simulates a "viral key" moment (one key takes
// 40% of the stream, like a breaking-news hashtag) on a 20-worker stage
// and compares key grouping, plain PKG, and the heavy-hitter-aware
// W-Choices extension, including the per-key state cost each one pays.
//
//   ./examples/extreme_skew [--messages=500000] [--workers=20] [--hot=0.4]

#include <iostream>
#include <map>
#include <set>

#include "common/flags.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/table.h"
#include "partition/factory.h"
#include "stats/imbalance.h"

using namespace pkgstream;

int main(int argc, char** argv) {
  Flags flags;
  PKGSTREAM_CHECK_OK(Flags::Parse(argc, argv, &flags));
  const uint64_t messages =
      flags.GetIntInRange("messages", 500000, 1, 1000000000);
  const auto workers =
      static_cast<uint32_t>(flags.GetIntInRange("workers", 20, 1, 4096));
  const double hot = flags.GetDouble("hot", 0.4);
  const uint64_t seed = flags.GetIntInRange("seed", 42, 0, kMaxIntFlag);

  std::cout << "viral-key scenario: one key carries "
            << FormatFixed(hot * 100, 0) << "% of "
            << FormatWithCommas(messages) << " messages; " << workers
            << " workers\n"
            << "two-choice limit 2/W = " << FormatFixed(2.0 / workers, 2)
            << " << p1 = " << FormatFixed(hot, 2)
            << ": plain PKG cannot balance this (Section IV)\n\n";

  Table out({"technique", "I(m)/m", "hot-key workers", "max tail-key workers"});
  for (auto [technique, label] :
       {std::pair{partition::Technique::kHashing, "KG"},
        std::pair{partition::Technique::kPkgLocal, "PKG"},
        std::pair{partition::Technique::kWChoices, "W-Choices"}}) {
    partition::PartitionerConfig config;
    config.technique = technique;
    config.sources = 1;
    config.workers = workers;
    config.seed = seed;
    auto p = partition::MakePartitioner(config);
    PKGSTREAM_CHECK_OK(p.status());

    Rng rng(seed);
    std::vector<uint64_t> loads(workers, 0);
    std::set<WorkerId> hot_workers;
    std::map<Key, std::set<WorkerId>> tail_spread;
    constexpr Key kHotKey = 0;
    for (uint64_t i = 0; i < messages; ++i) {
      Key k = rng.Bernoulli(hot) ? kHotKey : 1 + rng.UniformInt(100000);
      WorkerId w = (*p)->Route(0, k);
      ++loads[w];
      if (k == kHotKey) {
        hot_workers.insert(w);
      } else if (tail_spread.size() < 5000) {
        tail_spread[k].insert(w);
      }
    }
    size_t max_tail = 0;
    for (const auto& [_, s] : tail_spread) {
      max_tail = std::max(max_tail, s.size());
    }
    double imbalance = stats::ImbalanceOf(loads);
    out.AddRow({label, FormatCompact(imbalance / messages),
                std::to_string(hot_workers.size()),
                std::to_string(max_tail)});
  }
  out.Print(std::cout);
  std::cout
      << "\nKG pins the viral key to one worker (imbalance ~ p1 - 1/W of\n"
         "the stream). PKG halves that but still hits the two-choice\n"
         "wall. W-Choices detects the key with a SPACESAVING sketch and\n"
         "fans only *it* across all workers, restoring near-perfect\n"
         "balance while every tail key still touches at most two workers\n"
         "- so aggregation overhead stays per-key-bounded where it\n"
         "matters.\n";
  return 0;
}
