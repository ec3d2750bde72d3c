// Copyright 2026 The pkgstream Authors.
// Tests for the extension partitioners: key grouping with rebalancing
// (Sections II-B / VIII) and consistent hashing with replica choice
// (Section VII).

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "partition/consistent_hashing.h"
#include "partition/factory.h"
#include "partition/key_grouping.h"
#include "partition/rebalancing.h"
#include "stats/imbalance.h"
#include "workload/static_distribution.h"
#include "workload/zipf.h"

namespace pkgstream {
namespace partition {
namespace {

// ------------------------- Rebalancing ------------------------------------

TEST(RebalancingTest, BehavesLikeHashingBeforeFirstCheck) {
  RebalancingOptions options;
  options.check_period = 1000000;  // never within this test
  options.hash_seed = 42;
  RebalancingKeyGrouping rb(1, 8, options);
  HashFamily reference(1, 8, 42);
  for (Key k = 0; k < 500; ++k) {
    EXPECT_EQ(rb.Route(0, k), reference.Bucket(0, k));
  }
  EXPECT_EQ(rb.stats().checks, 0u);
  EXPECT_EQ(rb.RoutingTableSize(), 0u);
}

TEST(RebalancingTest, KeyGroupingSemanticsBetweenMigrations) {
  RebalancingOptions options;
  options.check_period = 500;
  RebalancingKeyGrouping rb(1, 4, options);
  Rng rng(7);
  // Between checks a key must stay on a single worker.
  Key key = 99;
  WorkerId w = rb.Route(0, key);
  for (int i = 0; i < 400; ++i) {
    EXPECT_EQ(rb.Route(0, key), w);
  }
}

TEST(RebalancingTest, MigratesHotKeysUnderSkew) {
  RebalancingOptions options;
  options.check_period = 2000;
  options.imbalance_threshold = 0.05;
  RebalancingKeyGrouping rb(1, 4, options);
  auto dist = std::make_shared<workload::StaticDistribution>(
      workload::ZipfWeights(200, 1.4), "zipf");
  Rng rng(5);
  for (int i = 0; i < 50000; ++i) rb.Route(0, dist->Sample(&rng));
  EXPECT_GT(rb.stats().checks, 0u);
  EXPECT_GT(rb.stats().rebalances, 0u);
  EXPECT_GT(rb.stats().keys_moved, 0u);
  EXPECT_GT(rb.stats().state_moved, 0u);
  // The override table holds every distinct migrated key (a key migrated
  // twice occupies one slot), so it never exceeds total migrations.
  EXPECT_GT(rb.RoutingTableSize(), 0u);
  EXPECT_LE(rb.RoutingTableSize(), rb.stats().keys_moved);
}

// Regression: a migration that lands a key back on its hash placement must
// erase its override instead of recording a redundant one — otherwise the
// routing table grows monotonically for the lifetime of the stream.
TEST(RebalancingTest, OverrideErasedWhenMigrationReturnsKeyHome) {
  RebalancingOptions options;
  options.check_period = 1000;
  options.imbalance_threshold = 0.1;
  options.max_keys_per_rebalance = 1;  // only the probe key may migrate
  options.hash_seed = 42;
  RebalancingKeyGrouping rb(1, 2, options);
  HashFamily placement(1, 2, options.hash_seed);

  // A probe key homed on worker 0, plus background key pools per home.
  Key probe = 0;
  while (placement.Bucket(0, probe) != 0) ++probe;
  std::vector<Key> home0;
  std::vector<Key> home1;
  for (Key k = probe + 1; home0.size() < 390 || home1.size() < 390; ++k) {
    (placement.Bucket(0, k) == 0 ? &home0 : &home1)->push_back(k);
  }

  // One check window: `probe_n` probe messages plus background traffic
  // 2 msgs per key so the probe is the hottest single key, with the bulk
  // of the window on `hot` keys and a trickle on `cold` keys. The spread
  // (880 - 120) comfortably exceeds twice the probe rate, so the
  // migration heuristic moves the probe without overshooting.
  auto window = [&](const std::vector<Key>& hot, const std::vector<Key>& cold) {
    for (int i = 0; i < 100; ++i) rb.Route(0, probe);
    for (int i = 0; i < 780; ++i) rb.Route(0, hot[i / 2]);
    for (int i = 0; i < 120; ++i) rb.Route(0, cold[i / 2]);
  };

  window(home0, home1);  // worker 0 hot: probe migrates to worker 1
  ASSERT_EQ(rb.stats().keys_moved, 1u);
  EXPECT_EQ(rb.RoutingTableSize(), 1u);
  EXPECT_EQ(rb.Route(0, probe), 1u);

  window(home1, home0);  // worker 1 hot: probe migrates home to worker 0
  ASSERT_EQ(rb.stats().keys_moved, 2u);
  EXPECT_EQ(rb.RoutingTableSize(), 0u) << "override must be erased";
  EXPECT_EQ(rb.Route(0, probe), 0u);
}

TEST(RebalancingTest, ImprovesOverPlainHashing) {
  auto dist = std::make_shared<workload::StaticDistribution>(
      workload::ZipfWeights(2000, 1.0), "zipf");
  RebalancingOptions options;
  options.check_period = 5000;
  options.imbalance_threshold = 0.05;
  options.max_keys_per_rebalance = 32;
  RebalancingKeyGrouping rb(1, 5, options);
  KeyGrouping kg(1, 5, options.hash_seed);
  std::vector<uint64_t> rb_loads(5, 0);
  std::vector<uint64_t> kg_loads(5, 0);
  Rng rng(11);
  for (int i = 0; i < 300000; ++i) {
    Key k = dist->Sample(&rng);
    ++rb_loads[rb.Route(0, k)];
    ++kg_loads[kg.Route(0, k)];
  }
  EXPECT_LT(stats::ImbalanceOf(rb_loads), stats::ImbalanceOf(kg_loads));
}

TEST(RebalancingTest, NoMigrationOnBalancedStream) {
  RebalancingOptions options;
  options.check_period = 1000;
  options.imbalance_threshold = 0.5;  // generous
  RebalancingKeyGrouping rb(1, 4, options);
  // Distinct keys: hashing is already nearly balanced.
  for (Key k = 0; k < 100000; ++k) rb.Route(0, k);
  EXPECT_GT(rb.stats().checks, 0u);
  EXPECT_EQ(rb.stats().keys_moved, 0u);
}

TEST(RebalancingTest, FactoryIntegration) {
  PartitionerConfig config;
  config.technique = Technique::kRebalancing;
  config.workers = 4;
  config.rebalance_period = 100;
  auto p = MakePartitioner(config);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->MaxWorkersPerKey(), 1u);
  EXPECT_NE((*p)->Name().find("rebalance"), std::string::npos);

  config.rebalance_period = 0;
  EXPECT_TRUE(MakePartitioner(config).status().IsInvalidArgument());
}

// ------------------------- Consistent hashing -----------------------------

TEST(ConsistentHashTest, StablePlacement) {
  ConsistentHashOptions options;
  ConsistentHashGrouping ch(1, 8, options);
  for (Key k = 0; k < 200; ++k) {
    WorkerId w = ch.Route(0, k);
    EXPECT_EQ(ch.Route(0, k), w);
    EXPECT_LT(w, 8u);
  }
}

TEST(ConsistentHashTest, SuccessorsAreDistinct) {
  ConsistentHashOptions options;
  options.replicas = 3;
  ConsistentHashGrouping ch(1, 8, options);
  std::vector<WorkerId> succ;
  for (Key k = 0; k < 100; ++k) {
    ch.Successors(k, &succ);
    ASSERT_EQ(succ.size(), 3u);
    std::set<WorkerId> unique(succ.begin(), succ.end());
    EXPECT_EQ(unique.size(), 3u);
  }
}

TEST(ConsistentHashTest, ReplicaChoiceSplitsHotKey) {
  ConsistentHashOptions options;
  options.replicas = 2;
  ConsistentHashGrouping ch(1, 8, options);
  std::set<WorkerId> used;
  for (int i = 0; i < 100; ++i) used.insert(ch.Route(0, /*key=*/7));
  EXPECT_EQ(used.size(), 2u);  // key splitting over the 2 ring successors
}

TEST(ConsistentHashTest, RemoveWorkerOnlyRemapsItsArcs) {
  ConsistentHashOptions options;
  options.virtual_nodes = 128;
  ConsistentHashGrouping ch(1, 8, options);
  // Record placements, remove one worker, check only its keys moved.
  std::vector<WorkerId> before;
  std::vector<WorkerId> succ;
  const int keys = 2000;
  for (Key k = 0; k < keys; ++k) {
    ch.Successors(k, &succ);
    before.push_back(succ[0]);
  }
  ch.RemoveWorker(3);
  int moved = 0;
  for (Key k = 0; k < keys; ++k) {
    ch.Successors(k, &succ);
    if (succ[0] != before[k]) {
      ++moved;
      EXPECT_EQ(before[k], 3u) << "key " << k << " moved although its "
                               << "worker stayed on the ring";
    }
  }
  // Roughly 1/8 of the keys lived on worker 3.
  EXPECT_GT(moved, keys / 16);
  EXPECT_LT(moved, keys / 4);
}

TEST(ConsistentHashTest, PkgOverRingBalancesLikePkg) {
  auto dist = std::make_shared<workload::StaticDistribution>(
      workload::ZipfWeights(5000, 1.0), "zipf");
  ConsistentHashOptions plain;
  plain.replicas = 1;
  ConsistentHashOptions two;
  two.replicas = 2;
  ConsistentHashGrouping ch1(1, 8, plain);
  ConsistentHashGrouping ch2(1, 8, two);
  std::vector<uint64_t> l1(8, 0);
  std::vector<uint64_t> l2(8, 0);
  Rng rng(13);
  for (int i = 0; i < 200000; ++i) {
    Key k = dist->Sample(&rng);
    ++l1[ch1.Route(0, k)];
    ++l2[ch2.Route(0, k)];
  }
  // Two-replica choice beats the plain ring by a wide margin.
  EXPECT_LT(stats::ImbalanceOf(l2) * 10, stats::ImbalanceOf(l1));
}

TEST(ConsistentHashTest, ReplayAndCloneRouteIdenticallyWithinSuccessors) {
  // The ring is built directly rather than through the factory, so the
  // technique sweeps do not reach it: check their properties here —
  // deterministic replay, Clone() parity, and every message of a key
  // landing on one of its `replicas` ring successors.
  ConsistentHashOptions options;
  options.replicas = 2;
  ConsistentHashGrouping a(1, 8, options);
  ConsistentHashGrouping b(1, 8, options);
  PartitionerPtr clone = a.Clone();
  Rng rng(5);
  std::vector<WorkerId> succ;
  for (int i = 0; i < 5000; ++i) {
    const Key k = rng.UniformInt(300);
    const WorkerId w = a.Route(0, k);
    ASSERT_EQ(b.Route(0, k), w) << "message " << i;
    ASSERT_EQ(clone->Route(0, k), w) << "message " << i;
    a.Successors(k, &succ);
    ASSERT_TRUE(w == succ[0] || w == succ[1]) << "key " << k;
  }
}

TEST(ConsistentHashTest, NameAndSpreadFollowReplicas) {
  ConsistentHashOptions options;
  ConsistentHashGrouping plain(1, 6, options);
  EXPECT_EQ(plain.Name(), "CH");
  EXPECT_EQ(plain.MaxWorkersPerKey(), 1u);
  options.replicas = 2;
  ConsistentHashGrouping two(1, 6, options);
  EXPECT_EQ(two.Name(), "CH-PKG(r=2)");
  EXPECT_EQ(two.MaxWorkersPerKey(), 2u);
}

// The constructor CHECKs its options: a bad ring is a programming error.
TEST(ConsistentHashDeathTest, RejectsMoreReplicasThanWorkers) {
  ConsistentHashOptions options;
  options.replicas = 7;
  EXPECT_DEATH(ConsistentHashGrouping(1, 6, options), "replicas");
}

TEST(ConsistentHashDeathTest, RejectsZeroReplicas) {
  ConsistentHashOptions options;
  options.replicas = 0;
  EXPECT_DEATH(ConsistentHashGrouping(1, 6, options), "replicas");
}

TEST(ConsistentHashDeathTest, RejectsZeroVirtualNodes) {
  ConsistentHashOptions options;
  options.virtual_nodes = 0;
  EXPECT_DEATH(ConsistentHashGrouping(1, 6, options), "virtual_nodes");
}

TEST(ConsistentHashDeathTest, RemovingTheLastWorkerAborts) {
  ConsistentHashGrouping ch(1, 2);
  ch.RemoveWorker(0);
  EXPECT_DEATH(ch.RemoveWorker(1), "last worker");
}

TEST(ConsistentHashTest, NamesParse) {
  EXPECT_EQ(*ParseTechnique("KG+rebalance"), Technique::kRebalancing);
  EXPECT_EQ(*ParseTechnique(TechniqueName(Technique::kRebalancing)),
            Technique::kRebalancing);
}

}  // namespace
}  // namespace partition
}  // namespace pkgstream
