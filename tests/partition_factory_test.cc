// Copyright 2026 The pkgstream Authors.
// Unit tests for the technique registry / factory.

#include <gtest/gtest.h>

#include "partition/factory.h"

namespace pkgstream {
namespace partition {
namespace {

TEST(FactoryTest, NamesRoundTrip) {
  for (Technique t :
       {Technique::kHashing, Technique::kShuffle, Technique::kRandom,
        Technique::kPkgGlobal, Technique::kPkgLocal, Technique::kPkgProbing,
        Technique::kPotcStatic, Technique::kOnGreedy, Technique::kOffGreedy}) {
    auto parsed = ParseTechnique(TechniqueName(t));
    ASSERT_TRUE(parsed.ok()) << TechniqueName(t);
    EXPECT_EQ(*parsed, t);
  }
}

TEST(FactoryTest, PaperAliases) {
  EXPECT_EQ(*ParseTechnique("H"), Technique::kHashing);
  EXPECT_EQ(*ParseTechnique("KG"), Technique::kHashing);
  EXPECT_EQ(*ParseTechnique("G"), Technique::kPkgGlobal);
  EXPECT_EQ(*ParseTechnique("L"), Technique::kPkgLocal);
  EXPECT_EQ(*ParseTechnique("LP"), Technique::kPkgProbing);
  EXPECT_EQ(*ParseTechnique("PKG"), Technique::kPkgLocal);
}

TEST(FactoryTest, UnknownNameIsNotFound) {
  EXPECT_TRUE(ParseTechnique("quantum").status().IsNotFound());
}

TEST(FactoryTest, BuildsEveryTechniqueExceptOffGreedyWithoutFreq) {
  for (Technique t :
       {Technique::kHashing, Technique::kShuffle, Technique::kRandom,
        Technique::kPkgGlobal, Technique::kPkgLocal, Technique::kPkgProbing,
        Technique::kPotcStatic, Technique::kOnGreedy}) {
    PartitionerConfig config;
    config.technique = t;
    config.sources = 2;
    config.workers = 4;
    auto p = MakePartitioner(config);
    ASSERT_TRUE(p.ok()) << TechniqueName(t);
    EXPECT_EQ((*p)->workers(), 4u);
    EXPECT_EQ((*p)->sources(), 2u);
    WorkerId w = (*p)->Route(0, 123);
    EXPECT_LT(w, 4u);
  }
}

TEST(FactoryTest, OffGreedyRequiresFrequencies) {
  PartitionerConfig config;
  config.technique = Technique::kOffGreedy;
  EXPECT_TRUE(MakePartitioner(config).status().IsFailedPrecondition());

  stats::FrequencyTable freq;
  freq.Add(1, 10);
  config.frequencies = &freq;
  EXPECT_TRUE(MakePartitioner(config).ok());
}

TEST(FactoryTest, ValidatesArguments) {
  PartitionerConfig config;
  config.sources = 0;
  EXPECT_TRUE(MakePartitioner(config).status().IsInvalidArgument());
  config.sources = 1;
  config.workers = 0;
  EXPECT_TRUE(MakePartitioner(config).status().IsInvalidArgument());
  config.workers = 2;
  config.technique = Technique::kPkgLocal;
  config.num_choices = 0;
  EXPECT_TRUE(MakePartitioner(config).status().IsInvalidArgument());
  config.num_choices = 2;
  config.technique = Technique::kPkgProbing;
  config.probe_period_messages = 0;
  EXPECT_TRUE(MakePartitioner(config).status().IsInvalidArgument());
}

TEST(FactoryTest, PkgVariantsUseConfiguredChoices) {
  PartitionerConfig config;
  config.technique = Technique::kPkgLocal;
  config.workers = 16;
  config.num_choices = 3;
  auto p = MakePartitioner(config);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->MaxWorkersPerKey(), 3u);
}

TEST(FactoryTest, PotcForcesAtLeastTwoChoices) {
  PartitionerConfig config;
  config.technique = Technique::kPotcStatic;
  config.workers = 4;
  config.num_choices = 1;
  auto p = MakePartitioner(config);
  ASSERT_TRUE(p.ok());  // silently upgraded to 2 choices
  EXPECT_EQ((*p)->Name(), "PoTC");
}

// Every technique the factory can build: a fresh clone must make the same
// routing decisions as its original on the same input, and routing through
// the clone must not disturb the original's state (full independence —
// ThreadedRuntime leans on this for its per-source replicas).
TEST(FactoryTest, ClonesRouteIdenticallyAndIndependently) {
  stats::FrequencyTable freq;
  for (Key k = 0; k < 50; ++k) freq.Add(k, 50 - k);
  // kRandom is deliberately absent: its clones draw independent random
  // streams by design (see RandomCloneDrawsAnIndependentStream below).
  for (Technique t :
       {Technique::kHashing, Technique::kShuffle, Technique::kPkgGlobal,
        Technique::kPkgLocal, Technique::kPkgProbing, Technique::kPotcStatic,
        Technique::kOnGreedy, Technique::kOffGreedy, Technique::kRebalancing,
        Technique::kWChoices}) {
    PartitionerConfig config;
    config.technique = t;
    config.sources = 2;
    config.workers = 4;
    config.frequencies = &freq;
    auto a = MakePartitioner(config);
    auto b = MakePartitioner(config);
    ASSERT_TRUE(a.ok() && b.ok()) << TechniqueName(t);
    PartitionerPtr clone = (*a)->Clone();
    EXPECT_EQ(clone->Name(), (*a)->Name()) << TechniqueName(t);
    EXPECT_EQ(clone->workers(), (*a)->workers());
    EXPECT_EQ(clone->sources(), (*a)->sources());
    // Perturb the ORIGINAL: if the clone shared any state, its decision
    // stream would diverge from the pristine reference `b`.
    for (Key k = 0; k < 500; ++k) (*a)->Route(k % 2, k * 13);
    for (Key k = 0; k < 500; ++k) {
      ASSERT_EQ(clone->Route(k % 2, k * 7), (*b)->Route(k % 2, k * 7))
          << TechniqueName(t) << " diverged at key " << k * 7;
    }
  }
}

// Regression: Clone() once copied RandomGrouping's RNG verbatim, so every
// per-source replica emitted the identical worker sequence — all sources'
// i-th message landed on the same worker. Clones must be decorrelated
// from the original (and from each other).
TEST(FactoryTest, RandomCloneDrawsAnIndependentStream) {
  PartitionerConfig config;
  config.technique = Technique::kRandom;
  config.sources = 1;
  config.workers = 4;
  auto a = MakePartitioner(config);
  auto fresh = MakePartitioner(config);  // same seed: a's pristine stream
  ASSERT_TRUE(a.ok() && fresh.ok());
  PartitionerPtr clone1 = (*a)->Clone();
  PartitionerPtr clone2 = (*a)->Clone();
  int agree_fresh = 0;
  int agree_pair = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    WorkerId c1 = clone1->Route(0, 0);
    if (c1 == (*fresh)->Route(0, 0)) ++agree_fresh;
    if (c1 == clone2->Route(0, 0)) ++agree_pair;
  }
  // Independent uniform streams over 4 workers agree ~1/4 of the time;
  // lockstep streams agree always.
  EXPECT_LT(agree_fresh, n / 2);
  EXPECT_LT(agree_pair, n / 2);
}

TEST(FactoryTest, ReplicasAreIndependentInstances) {
  PartitionerConfig config;
  config.technique = Technique::kPkgLocal;
  config.sources = 3;
  config.workers = 4;
  auto replicas = MakePartitionerReplicas(config, 3);
  ASSERT_TRUE(replicas.ok());
  ASSERT_EQ(replicas->size(), 3u);
  // Same fresh state: identical decisions for the same call sequence.
  std::vector<WorkerId> first;
  for (Key k = 0; k < 200; ++k) first.push_back((*replicas)[0]->Route(0, k));
  for (Key k = 0; k < 200; ++k) {
    EXPECT_EQ((*replicas)[1]->Route(0, k), first[k]);
  }
  EXPECT_TRUE(
      MakePartitionerReplicas(config, 0).status().IsInvalidArgument());
}

TEST(FactoryTest, TechniqueNamesMatchPaperLabels) {
  EXPECT_EQ(TechniqueName(Technique::kHashing), "Hashing");
  EXPECT_EQ(TechniqueName(Technique::kShuffle), "SG");
  EXPECT_EQ(TechniqueName(Technique::kPotcStatic), "PoTC");
  EXPECT_EQ(TechniqueName(Technique::kOnGreedy), "On-Greedy");
  EXPECT_EQ(TechniqueName(Technique::kOffGreedy), "Off-Greedy");
}

}  // namespace
}  // namespace partition
}  // namespace pkgstream
