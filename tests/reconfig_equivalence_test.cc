// Copyright 2026 The pkgstream Authors.
// Property tests for the Partitioner::SetWorkerSet contract across the
// reconfigurable techniques (PKG-L, D-Choices, W-Choices, SG, KG+rebalance),
// seeds x cluster sizes:
//
//  * healthy-path identity — a partitioner told "everyone is alive" (at any
//    point, including a crash+rejoin round trip with no degraded traffic)
//    routes byte-identically to one that never heard of reconfiguration;
//  * degraded safety — while workers are down, Route never returns a dead
//    worker, for any technique and any alive subset;
//  * post-rejoin consistency — after a rejoin restores the full worker set,
//    decisions fall back into the fresh-start partitioner's structure: PKG
//    routes inside the key's candidate set H1..Hd again, shuffle resumes a
//    full round-robin cycle, and clones keep routing identically to their
//    source (the replica contract extends to reconfigured state).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "partition/factory.h"
#include "partition/pkg.h"

namespace pkgstream {
namespace partition {
namespace {

/// Skewed key sequence (key space 100, quadratically skewed so a head key
/// dominates — the regime where PKG state actually matters).
std::vector<Key> MakeKeys(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Key> keys(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t a = rng.UniformInt(100);
    const uint64_t b = rng.UniformInt(100);
    keys[i] = std::min(a, b);
  }
  return keys;
}

PartitionerConfig ConfigFor(Technique technique, uint32_t workers,
                            uint64_t seed) {
  PartitionerConfig config;
  config.technique = technique;
  config.workers = workers;
  config.seed = seed;
  if (technique == Technique::kDChoices || technique == Technique::kWChoices) {
    config.sketch_capacity = 2 * workers;
    config.heavy_min_messages = 100;
  }
  if (technique == Technique::kDChoices) config.heavy_threshold_factor = 0.5;
  return config;
}

const Technique kReconfigurable[] = {Technique::kPkgLocal,
                                     Technique::kDChoices,
                                     Technique::kWChoices, Technique::kShuffle,
                                     Technique::kRebalancing};

const uint32_t kClusterSizes[] = {4, 16, 50};

TEST(ReconfigEquivalenceTest, AllAliveSetWorkerSetIsByteInvisible) {
  // SetWorkerSet(all alive) — including a crash+rejoin round trip with no
  // messages routed in between — must not perturb a single decision.
  for (Technique technique : kReconfigurable) {
    for (uint32_t workers : kClusterSizes) {
      for (uint64_t seed : {1, 2, 3}) {
        auto base = MakePartitioner(ConfigFor(technique, workers, seed));
        auto poked = MakePartitioner(ConfigFor(technique, workers, seed));
        ASSERT_TRUE(base.ok() && poked.ok());
        ASSERT_TRUE((*poked)->SupportsReconfiguration());
        const std::vector<Key> keys = MakeKeys(2000, seed * 77);
        std::vector<bool> alive(workers, true);
        std::vector<bool> degraded(alive);
        degraded[workers / 2] = false;
        for (size_t i = 0; i < keys.size(); ++i) {
          if (i == 500) {
            ASSERT_TRUE((*poked)->SetWorkerSet(alive).ok());
          }
          if (i == 1000) {
            // Round trip with zero degraded traffic between the calls.
            ASSERT_TRUE((*poked)->SetWorkerSet(degraded).ok());
            ASSERT_TRUE((*poked)->SetWorkerSet(alive).ok());
          }
          EXPECT_EQ((*base)->Route(0, keys[i]), (*poked)->Route(0, keys[i]))
              << TechniqueName(technique) << " W=" << workers << " seed="
              << seed << " i=" << i;
        }
      }
    }
  }
}

TEST(ReconfigEquivalenceTest, DegradedRoutingNeverHitsDeadWorkers) {
  for (Technique technique : kReconfigurable) {
    for (uint32_t workers : kClusterSizes) {
      for (uint64_t seed : {1, 2, 3}) {
        auto p = MakePartitioner(ConfigFor(technique, workers, seed));
        ASSERT_TRUE(p.ok());
        const std::vector<Key> keys = MakeKeys(3000, seed * 31);
        // Warm up healthy, then kill every other worker.
        for (size_t i = 0; i < 1000; ++i) (*p)->Route(0, keys[i]);
        std::vector<bool> alive(workers);
        for (uint32_t w = 0; w < workers; ++w) alive[w] = (w % 2 == 0);
        ASSERT_TRUE((*p)->SetWorkerSet(alive).ok());
        for (size_t i = 1000; i < keys.size(); ++i) {
          const WorkerId w = (*p)->Route(0, keys[i]);
          ASSERT_LT(w, workers);
          EXPECT_TRUE(alive[w])
              << TechniqueName(technique) << " routed key " << keys[i]
              << " to dead worker " << w;
        }
      }
    }
  }
}

TEST(ReconfigEquivalenceTest, PkgRejoinReturnsToFreshCandidateSets) {
  // After the outage ends, PKG's decisions must land back inside the
  // candidate set H1..Hd a fresh partitioner would use — the structural
  // sense in which routing "converges back" (load estimates differ, so the
  // argmin need not match message for message; membership must).
  for (uint32_t workers : kClusterSizes) {
    for (uint64_t seed : {1, 2, 3, 4, 5}) {
      auto degraded_run =
          MakePartitioner(ConfigFor(Technique::kPkgLocal, workers, seed));
      auto fresh =
          MakePartitioner(ConfigFor(Technique::kPkgLocal, workers, seed));
      ASSERT_TRUE(degraded_run.ok() && fresh.ok());
      auto* fresh_pkg = dynamic_cast<PartialKeyGrouping*>(fresh->get());
      ASSERT_NE(fresh_pkg, nullptr);
      const std::vector<Key> keys = MakeKeys(3000, seed * 13);
      for (size_t i = 0; i < 1000; ++i) (*degraded_run)->Route(0, keys[i]);
      std::vector<bool> alive(workers, true);
      alive[0] = alive[1] = false;
      ASSERT_TRUE((*degraded_run)->SetWorkerSet(alive).ok());
      for (size_t i = 1000; i < 2000; ++i) (*degraded_run)->Route(0, keys[i]);
      // Rejoin: full worker set restored.
      ASSERT_TRUE(
          (*degraded_run)->SetWorkerSet(std::vector<bool>(workers, true)).ok());
      std::vector<WorkerId> candidates;
      for (size_t i = 2000; i < keys.size(); ++i) {
        const WorkerId w = (*degraded_run)->Route(0, keys[i]);
        fresh_pkg->CandidateWorkers(keys[i], &candidates);
        EXPECT_NE(std::find(candidates.begin(), candidates.end(), w),
                  candidates.end())
            << "W=" << workers << " seed=" << seed << ": post-rejoin route "
            << w << " outside the fresh candidate set of key " << keys[i];
      }
    }
  }
}

TEST(ReconfigEquivalenceTest, ShuffleResumesFullCyclesAfterRejoin) {
  for (uint32_t workers : kClusterSizes) {
    auto p = MakePartitioner(ConfigFor(Technique::kShuffle, workers, 42));
    ASSERT_TRUE(p.ok());
    for (uint32_t i = 0; i < 3 * workers + 1; ++i) (*p)->Route(0, i);
    std::vector<bool> alive(workers, true);
    alive[workers - 1] = false;
    ASSERT_TRUE((*p)->SetWorkerSet(alive).ok());
    for (uint32_t i = 0; i < workers; ++i) {
      EXPECT_NE((*p)->Route(0, i), workers - 1);
    }
    ASSERT_TRUE((*p)->SetWorkerSet(std::vector<bool>(workers, true)).ok());
    // One full cycle hits every worker exactly once again.
    std::set<WorkerId> seen;
    for (uint32_t i = 0; i < workers; ++i) seen.insert((*p)->Route(0, i));
    EXPECT_EQ(seen.size(), workers);
  }
}

TEST(ReconfigEquivalenceTest, ClonesInheritReconfiguredState) {
  // Clone() after SetWorkerSet must carry the alive mask: a replica built
  // mid-outage routes exactly like its source from that point on.
  for (Technique technique : kReconfigurable) {
    for (uint64_t seed : {9, 10}) {
      const uint32_t workers = 16;
      auto p = MakePartitioner(ConfigFor(technique, workers, seed));
      ASSERT_TRUE(p.ok());
      const std::vector<Key> keys = MakeKeys(2000, seed);
      for (size_t i = 0; i < 500; ++i) (*p)->Route(0, keys[i]);
      std::vector<bool> alive(workers, true);
      alive[3] = alive[7] = false;
      ASSERT_TRUE((*p)->SetWorkerSet(alive).ok());
      PartitionerPtr clone = (*p)->Clone();
      for (size_t i = 500; i < keys.size(); ++i) {
        EXPECT_EQ((*p)->Route(0, keys[i]), clone->Route(0, keys[i]))
            << TechniqueName(technique) << " seed=" << seed << " i=" << i;
      }
    }
  }
}

TEST(ReconfigEquivalenceTest, NonReconfigurableTechniquesSaySo) {
  for (Technique technique : {Technique::kHashing, Technique::kPotcStatic}) {
    auto p = MakePartitioner(ConfigFor(technique, 8, 42));
    ASSERT_TRUE(p.ok()) << TechniqueName(technique);
    EXPECT_FALSE((*p)->SupportsReconfiguration());
    EXPECT_TRUE((*p)->SetWorkerSet(std::vector<bool>(8, true))
                    .IsUnimplemented());
  }
}

}  // namespace
}  // namespace partition
}  // namespace pkgstream
