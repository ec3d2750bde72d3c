// Copyright 2026 The pkgstream Authors.
// Property-based (parameterized) tests: invariants every partitioning
// technique must satisfy, swept across techniques x workers x skew levels.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "partition/consistent_hashing.h"
#include "partition/factory.h"
#include "stats/frequency.h"
#include "stats/imbalance.h"
#include "workload/static_distribution.h"
#include "workload/zipf.h"

namespace pkgstream {
namespace partition {
namespace {

struct PropertyCase {
  Technique technique;
  uint32_t workers;
  uint32_t sources;
  double zipf_exponent;
  /// Sweep ConsistentHashGrouping (plain ring, one replica) instead of
  /// `technique`: the class is built directly, not through the factory.
  bool consistent_hash = false;
};

std::string CaseName(const testing::TestParamInfo<PropertyCase>& info) {
  const PropertyCase& c = info.param;
  std::string name = c.consistent_hash ? "CH" : TechniqueName(c.technique);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += "_w" + std::to_string(c.workers);
  name += "_s" + std::to_string(c.sources);
  name += "_z" + std::to_string(static_cast<int>(c.zipf_exponent * 10));
  return name;
}

class PartitionerPropertyTest : public testing::TestWithParam<PropertyCase> {
 protected:
  static constexpr uint64_t kMessages = 30000;
  static constexpr uint64_t kKeys = 2000;

  /// Builds the partitioner under test; fills frequencies for Off-Greedy.
  PartitionerPtr MakeSubject() {
    const PropertyCase& c = GetParam();
    if (c.consistent_hash) {
      ConsistentHashOptions options;
      options.seed = 42;
      return std::make_unique<ConsistentHashGrouping>(c.sources, c.workers,
                                                      options);
    }
    PartitionerConfig config;
    config.technique = c.technique;
    config.sources = c.sources;
    config.workers = c.workers;
    config.seed = 42;
    config.probe_period_messages = 500;
    if (c.technique == Technique::kOffGreedy) {
      frequencies_ = ComputeStreamFrequencies();
      config.frequencies = &frequencies_;
    }
    auto result = MakePartitioner(config);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(result).ValueOrDie();
  }

  stats::FrequencyTable ComputeStreamFrequencies() {
    auto dist = Distribution();
    Rng rng(7);
    stats::FrequencyTable freq;
    for (uint64_t i = 0; i < kMessages; ++i) freq.Add(dist->Sample(&rng));
    return freq;
  }

  std::shared_ptr<const workload::StaticDistribution> Distribution() {
    return std::make_shared<workload::StaticDistribution>(
        workload::ZipfWeights(kKeys, GetParam().zipf_exponent), "zipf");
  }

  stats::FrequencyTable frequencies_;
};

TEST_P(PartitionerPropertyTest, RoutesAlwaysInRange) {
  auto p = MakeSubject();
  auto dist = Distribution();
  Rng rng(7);
  for (uint64_t i = 0; i < kMessages; ++i) {
    SourceId s = static_cast<SourceId>(i % GetParam().sources);
    WorkerId w = p->Route(s, dist->Sample(&rng));
    ASSERT_LT(w, GetParam().workers);
  }
}

TEST_P(PartitionerPropertyTest, FullyDeterministicReplay) {
  auto p1 = MakeSubject();
  auto p2 = MakeSubject();
  auto dist = Distribution();
  Rng rng1(7);
  Rng rng2(7);
  for (uint64_t i = 0; i < kMessages; ++i) {
    SourceId s = static_cast<SourceId>(i % GetParam().sources);
    ASSERT_EQ(p1->Route(s, dist->Sample(&rng1)),
              p2->Route(s, dist->Sample(&rng2)))
        << "diverged at message " << i;
  }
}

TEST_P(PartitionerPropertyTest, KeySpreadBoundedByMaxWorkersPerKey) {
  auto p = MakeSubject();
  auto dist = Distribution();
  Rng rng(7);
  std::map<Key, std::set<WorkerId>> spread;
  for (uint64_t i = 0; i < kMessages; ++i) {
    SourceId s = static_cast<SourceId>(i % GetParam().sources);
    Key k = dist->Sample(&rng);
    spread[k].insert(p->Route(s, k));
  }
  uint32_t bound = p->MaxWorkersPerKey();
  for (const auto& [key, workers] : spread) {
    ASSERT_LE(workers.size(), bound) << "key " << key;
  }
}

TEST_P(PartitionerPropertyTest, LoadsConserveMessages) {
  auto p = MakeSubject();
  auto dist = Distribution();
  Rng rng(7);
  std::vector<uint64_t> loads(GetParam().workers, 0);
  for (uint64_t i = 0; i < kMessages; ++i) {
    SourceId s = static_cast<SourceId>(i % GetParam().sources);
    ++loads[p->Route(s, dist->Sample(&rng))];
  }
  uint64_t total = 0;
  for (uint64_t l : loads) total += l;
  EXPECT_EQ(total, kMessages);
}

TEST_P(PartitionerPropertyTest, ReportedShapeMatchesConfig) {
  auto p = MakeSubject();
  EXPECT_EQ(p->workers(), GetParam().workers);
  EXPECT_EQ(p->sources(), GetParam().sources);
  EXPECT_FALSE(p->Name().empty());
  EXPECT_GE(p->MaxWorkersPerKey(), 1u);
  EXPECT_LE(p->MaxWorkersPerKey(), GetParam().workers);
}

std::vector<PropertyCase> AllCases() {
  // kRebalancing is excluded from this sweep: its MaxWorkersPerKey() of 1
  // describes *simultaneous* placement, while migration legitimately moves
  // a key across workers over the run (covered by its dedicated tests).
  std::vector<PropertyCase> cases;
  for (Technique t :
       {Technique::kHashing, Technique::kShuffle, Technique::kRandom,
        Technique::kPkgGlobal, Technique::kPkgLocal, Technique::kPkgProbing,
        Technique::kPotcStatic, Technique::kOnGreedy, Technique::kOffGreedy,
        Technique::kWChoices}) {
    for (uint32_t workers : {2u, 5u, 16u}) {
      for (double z : {0.0, 1.4}) {
        uint32_t sources = (t == Technique::kPkgLocal) ? 4u : 1u;
        cases.push_back(PropertyCase{t, workers, sources, z});
      }
    }
  }
  for (uint32_t workers : {2u, 5u, 16u}) {
    for (double z : {0.0, 1.4}) {
      cases.push_back(PropertyCase{Technique::kHashing, workers, 1u, z,
                                   /*consistent_hash=*/true});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, PartitionerPropertyTest,
                         testing::ValuesIn(AllCases()), CaseName);

// --- Balance ordering properties, parameterized on skew ------------------

class BalanceOrderingTest : public testing::TestWithParam<double> {};

TEST_P(BalanceOrderingTest, PkgNeverWorseThanHashing) {
  double exponent = GetParam();
  auto dist = std::make_shared<workload::StaticDistribution>(
      workload::ZipfWeights(5000, exponent), "zipf");
  for (uint32_t workers : {5u, 10u}) {
    PartitionerConfig pkg_config;
    pkg_config.technique = Technique::kPkgGlobal;
    pkg_config.workers = workers;
    PartitionerConfig hash_config = pkg_config;
    hash_config.technique = Technique::kHashing;
    auto pkg = MakePartitioner(pkg_config);
    auto hash = MakePartitioner(hash_config);
    ASSERT_TRUE(pkg.ok() && hash.ok());
    std::vector<uint64_t> lp(workers, 0);
    std::vector<uint64_t> lh(workers, 0);
    Rng rng(11);
    for (int i = 0; i < 100000; ++i) {
      Key k = dist->Sample(&rng);
      ++lp[(*pkg)->Route(0, k)];
      ++lh[(*hash)->Route(0, k)];
    }
    EXPECT_LE(stats::ImbalanceOf(lp), stats::ImbalanceOf(lh) + 1.0)
        << "W=" << workers << " z=" << exponent;
  }
}

TEST_P(BalanceOrderingTest, ShuffleIsNearPerfect) {
  double exponent = GetParam();
  auto dist = std::make_shared<workload::StaticDistribution>(
      workload::ZipfWeights(5000, exponent), "zipf");
  PartitionerConfig config;
  config.technique = Technique::kShuffle;
  config.workers = 10;
  auto sg = MakePartitioner(config);
  ASSERT_TRUE(sg.ok());
  std::vector<uint64_t> loads(10, 0);
  Rng rng(13);
  for (int i = 0; i < 100000; ++i) ++loads[(*sg)->Route(0, dist->Sample(&rng))];
  EXPECT_LE(stats::ImbalanceOf(loads), 1.0);
}

INSTANTIATE_TEST_SUITE_P(SkewSweep, BalanceOrderingTest,
                         testing::Values(0.5, 1.0, 1.5, 2.0),
                         [](const testing::TestParamInfo<double>& info) {
                           return "z" + std::to_string(static_cast<int>(
                                            info.param * 10));
                         });

}  // namespace
}  // namespace partition
}  // namespace pkgstream
