// Copyright 2026 The pkgstream Authors.
// Tests for the machine-learning applications of Section VI: distributed
// naïve Bayes, the streaming parallel decision tree, and the heavy-hitter
// topology.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/decision_tree.h"
#include "apps/heavy_hitters.h"
#include "apps/naive_bayes.h"
#include "common/random.h"
#include "engine/logical_runtime.h"
#include "engine/threaded_runtime.h"
#include "stats/frequency.h"
#include "stats/imbalance.h"
#include "workload/static_distribution.h"
#include "workload/zipf.h"

namespace pkgstream {
namespace apps {
namespace {

// --------------------------- Naive Bayes ---------------------------------

partition::PartitionerConfig NbConfig(partition::Technique technique,
                                      uint32_t workers) {
  partition::PartitionerConfig config;
  config.technique = technique;
  config.sources = 1;
  config.workers = workers;
  config.seed = 42;
  return config;
}

/// Two classes, separable: class c makes feature f take value c+1 with
/// probability 0.9 (values are 1-based; 0 means absent).
LabeledExample MakeNbExample(Rng* rng, uint32_t num_features, uint32_t label) {
  LabeledExample ex;
  ex.label = label;
  for (uint32_t f = 0; f < num_features; ++f) {
    uint32_t v = 1 + (rng->Bernoulli(0.9) ? label : 1 - label);
    ex.feature_values.push_back(v);
  }
  return ex;
}

TEST(NaiveBayesTest, CreateValidates) {
  EXPECT_FALSE(DistributedNaiveBayes::Create(NbConfig(
      partition::Technique::kPkgLocal, 4), 0, 2).ok());
  EXPECT_FALSE(DistributedNaiveBayes::Create(NbConfig(
      partition::Technique::kPkgLocal, 4), 3, 1).ok());
  EXPECT_FALSE(DistributedNaiveBayes::Create(NbConfig(
      partition::Technique::kOffGreedy, 4), 3, 2).ok());
}

TEST(NaiveBayesTest, LearnsSeparableClasses) {
  for (auto technique :
       {partition::Technique::kPkgLocal, partition::Technique::kHashing,
        partition::Technique::kShuffle}) {
    auto nb = DistributedNaiveBayes::Create(NbConfig(technique, 4), 6, 2);
    ASSERT_TRUE(nb.ok());
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
      (*nb)->Train(0, MakeNbExample(&rng, 6, i % 2));
    }
    int correct = 0;
    const int tests = 500;
    for (int i = 0; i < tests; ++i) {
      LabeledExample ex = MakeNbExample(&rng, 6, i % 2);
      if ((*nb)->Classify(ex.feature_values) == ex.label) ++correct;
    }
    EXPECT_GT(correct, tests * 9 / 10)
        << partition::TechniqueName(technique);
  }
}

TEST(NaiveBayesTest, PkgProbesTwoWorkersPerFeature) {
  auto nb = DistributedNaiveBayes::Create(
      NbConfig(partition::Technique::kPkgLocal, 8), 5, 2);
  ASSERT_TRUE(nb.ok());
  Rng rng(7);
  for (int i = 0; i < 100; ++i) (*nb)->Train(0, MakeNbExample(&rng, 5, i % 2));
  uint64_t probes = 0;
  LabeledExample ex = MakeNbExample(&rng, 5, 0);
  (*nb)->Classify(ex.feature_values, &probes);
  EXPECT_LE(probes, 2u * 5u);  // at most 2 per feature
  // Shuffle must broadcast: W per feature.
  auto sg = DistributedNaiveBayes::Create(
      NbConfig(partition::Technique::kShuffle, 8), 5, 2);
  ASSERT_TRUE(sg.ok());
  for (int i = 0; i < 100; ++i) (*sg)->Train(0, MakeNbExample(&rng, 5, i % 2));
  uint64_t sg_probes = 0;
  (*sg)->Classify(ex.feature_values, &sg_probes);
  EXPECT_EQ(sg_probes, 8u * 5u);
  EXPECT_LT(probes, sg_probes);
}

TEST(NaiveBayesTest, KgProbesOneWorkerPerFeature) {
  auto nb = DistributedNaiveBayes::Create(
      NbConfig(partition::Technique::kHashing, 8), 5, 2);
  ASSERT_TRUE(nb.ok());
  Rng rng(7);
  for (int i = 0; i < 100; ++i) (*nb)->Train(0, MakeNbExample(&rng, 5, i % 2));
  uint64_t probes = 0;
  LabeledExample ex = MakeNbExample(&rng, 5, 0);
  (*nb)->Classify(ex.feature_values, &probes);
  EXPECT_EQ(probes, 5u);
}

TEST(NaiveBayesTest, MemoryBoundedByTechnique) {
  // Counter replication: KG = 1x, PKG <= 2x, SG <= Wx.
  auto count = [](partition::Technique technique) {
    auto nb = DistributedNaiveBayes::Create(NbConfig(technique, 6), 4, 2);
    EXPECT_TRUE(nb.ok());
    Rng rng(9);
    for (int i = 0; i < 3000; ++i) {
      (*nb)->Train(0, MakeNbExample(&rng, 4, i % 2));
    }
    return (*nb)->TotalCounters();
  };
  uint64_t kg = count(partition::Technique::kHashing);
  uint64_t pkg = count(partition::Technique::kPkgLocal);
  uint64_t sg = count(partition::Technique::kShuffle);
  EXPECT_LE(kg, pkg);
  EXPECT_LE(pkg, 2 * kg);
  EXPECT_GT(sg, pkg);
}

// --------------------------- Decision Tree -------------------------------

DecisionTreeOptions TreeOptions() {
  DecisionTreeOptions o;
  o.num_features = 2;
  o.num_classes = 2;
  o.histogram_bins = 32;
  o.min_leaf_samples = 500;
  o.max_leaves = 8;
  return o;
}

/// Class 0: feature0 ~ N(-2, 1); class 1: feature0 ~ N(+2, 1). feature1 is
/// noise — the tree must discover that feature0 at ~0 separates them.
NumericExample MakeTreeExample(Rng* rng, uint32_t label) {
  NumericExample ex;
  ex.label = label;
  ex.features.push_back(rng->Normal(label == 0 ? -2.0 : 2.0, 1.0));
  ex.features.push_back(rng->Normal(0.0, 1.0));
  return ex;
}

TEST(DecisionTreeModelTest, RootOnlyPredictsMajority) {
  DecisionTreeModel model(2);
  model.Observe(0, 1);
  model.Observe(0, 1);
  model.Observe(0, 0);
  EXPECT_EQ(model.Predict({0.0, 0.0}), 1u);
  EXPECT_EQ(model.num_leaves(), 1u);
}

TEST(DecisionTreeModelTest, SplitRoutesByThreshold) {
  DecisionTreeModel model(2);
  auto [left, right] = model.Split(0, /*feature=*/0, /*threshold=*/1.5);
  EXPECT_EQ(model.num_leaves(), 2u);
  EXPECT_EQ(model.LeafOf({1.0, 0.0}), left);
  EXPECT_EQ(model.LeafOf({2.0, 0.0}), right);
  model.Observe(left, 0);
  model.Observe(right, 1);
  EXPECT_EQ(model.Predict({0.0, 0.0}), 0u);
  EXPECT_EQ(model.Predict({3.0, 0.0}), 1u);
}

TEST(EntropyTest, KnownValues) {
  EXPECT_DOUBLE_EQ(Entropy({1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(Entropy({1.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(Entropy({0.0, 0.0}), 0.0);
  EXPECT_NEAR(Entropy({3.0, 1.0}), 0.8113, 1e-3);
}

TEST(DecisionTreeTest, LearnsSeparableBlobsUnderPkg) {
  partition::PartitionerConfig config;
  config.technique = partition::Technique::kPkgLocal;
  config.workers = 4;
  config.seed = 42;
  auto tree = StreamingDecisionTree::Create(config, TreeOptions());
  ASSERT_TRUE(tree.ok());
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    (*tree)->Train(0, MakeTreeExample(&rng, i % 2));
  }
  EXPECT_GT((*tree)->model().num_leaves(), 1u) << "tree never split";
  int correct = 0;
  const int tests = 1000;
  for (int i = 0; i < tests; ++i) {
    NumericExample ex = MakeTreeExample(&rng, i % 2);
    if ((*tree)->model().Predict(ex.features) == ex.label) ++correct;
  }
  EXPECT_GT(correct, tests * 9 / 10);
}

TEST(DecisionTreeTest, HistogramCountBoundedByTwoPerTriplet) {
  partition::PartitionerConfig config;
  config.technique = partition::Technique::kPkgLocal;
  config.workers = 8;
  config.seed = 42;
  DecisionTreeOptions options = TreeOptions();
  options.min_leaf_samples = 1 << 30;  // never split: histograms accumulate
  auto tree = StreamingDecisionTree::Create(config, options);
  ASSERT_TRUE(tree.ok());
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) (*tree)->Train(0, MakeTreeExample(&rng, i % 2));
  // One leaf, 2 features, 2 classes: <= 2 workers per feature.
  EXPECT_LE((*tree)->TotalHistograms(), 2u * 2u * 2u);
}

TEST(DecisionTreeTest, ShuffleNeedsMoreHistogramsAndMerges) {
  auto build = [](partition::Technique technique) {
    partition::PartitionerConfig config;
    config.technique = technique;
    config.workers = 8;
    config.seed = 42;
    DecisionTreeOptions options = TreeOptions();
    options.min_leaf_samples = 1 << 30;
    auto tree = StreamingDecisionTree::Create(config, options);
    EXPECT_TRUE(tree.ok());
    Rng rng(3);
    for (int i = 0; i < 4000; ++i) {
      (*tree)->Train(0, MakeTreeExample(&rng, i % 2));
    }
    return std::move(tree).ValueOrDie();
  };
  auto pkg = build(partition::Technique::kPkgLocal);
  auto sg = build(partition::Technique::kShuffle);
  EXPECT_LT(pkg->TotalHistograms(), sg->TotalHistograms());
}

TEST(DecisionTreeTest, WorkerLoadBalancedUnderPkg) {
  partition::PartitionerConfig config;
  config.technique = partition::Technique::kPkgLocal;
  config.workers = 4;
  config.seed = 42;
  auto tree = StreamingDecisionTree::Create(config, TreeOptions());
  ASSERT_TRUE(tree.ok());
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) (*tree)->Train(0, MakeTreeExample(&rng, i % 2));
  // 2 features x 2000 examples = 4000 updates across 4 workers.
  EXPECT_LT(stats::ImbalanceOf((*tree)->worker_loads()), 100.0);
}

// --------------------------- Heavy hitters -------------------------------

/// Streams 50k Zipf(1.4) items through `rt` (built on `hh`), finishes it
/// and checks that the top-3 true heavy hitters appear in the merged
/// top-5.
template <typename Runtime>
void ExpectFindsHotKeys(Runtime* rt, const HeavyHitterTopology& hh,
                        const std::string& label) {
  auto dist = std::make_shared<workload::StaticDistribution>(
      workload::ZipfWeights(2000, 1.4), "zipf");
  Rng rng(7);
  stats::FrequencyTable exact;
  for (int i = 0; i < 50000; ++i) {
    engine::Message m;
    m.key = dist->Sample(&rng);
    m.tag = kTagItem;
    exact.Add(m.key);
    rt->Inject(hh.spout, 0, m);
  }
  rt->Finish();
  auto* merger = static_cast<HeavyHitterMerger*>(rt->GetOperator(hh.merger, 0));
  // Every worker summary reached the merger.
  EXPECT_EQ(merger->merged().processed(), 50000u) << label;
  auto found = merger->TopK(5);
  auto truth = exact.TopK(5);
  ASSERT_GE(found.size(), 5u) << label;
  // The top-3 true heavy hitters must appear in the found top-5.
  for (int i = 0; i < 3; ++i) {
    bool present = false;
    for (const auto& e : found) present |= (e.key == truth[i].first);
    EXPECT_TRUE(present) << "missing hot key " << truth[i].first << " ("
                         << label << ")";
  }
}

TEST(HeavyHittersTest, TopologyFindsHotKeys) {
  for (auto technique :
       {partition::Technique::kPkgLocal, partition::Technique::kShuffle,
        partition::Technique::kHashing}) {
    HeavyHitterTopology hh =
        MakeHeavyHitterTopology(technique, 1, 4, /*capacity=*/64, 42);
    auto rt = engine::LogicalRuntime::Create(&hh.topology);
    ASSERT_TRUE(rt.ok());
    ExpectFindsHotKeys(rt->get(), hh, partition::TechniqueName(technique));
  }
}

TEST(HeavyHittersThreadedTest, TopologyFindsHotKeys) {
  // Summaries reach the merger through the SummaryBoard across threads.
  for (size_t shards : {size_t{1}, size_t{2}}) {
    HeavyHitterTopology hh = MakeHeavyHitterTopology(
        partition::Technique::kPkgLocal, 1, 4, /*capacity=*/64, 42);
    engine::ThreadedRuntimeOptions options;
    options.shards = shards;
    auto rt = engine::ThreadedRuntime::Create(&hh.topology, options);
    ASSERT_TRUE(rt.ok()) << rt.status();
    ExpectFindsHotKeys(rt->get(), hh, std::to_string(shards) + " shards");
  }
}

TEST(HeavyHittersTest, MergedEstimatesUpperBoundTruth) {
  HeavyHitterTopology hh = MakeHeavyHitterTopology(
      partition::Technique::kPkgLocal, 1, 4, /*capacity=*/128, 42);
  auto rt = engine::LogicalRuntime::Create(&hh.topology);
  ASSERT_TRUE(rt.ok());
  auto dist = std::make_shared<workload::StaticDistribution>(
      workload::ZipfWeights(500, 1.3), "zipf");
  Rng rng(9);
  stats::FrequencyTable exact;
  for (int i = 0; i < 30000; ++i) {
    engine::Message m;
    m.key = dist->Sample(&rng);
    m.tag = kTagItem;
    exact.Add(m.key);
    (*rt)->Inject(hh.spout, 0, m);
  }
  (*rt)->Finish();
  auto* merger =
      static_cast<HeavyHitterMerger*>((*rt)->GetOperator(hh.merger, 0));
  for (const auto& [key, count] : exact.TopK(10)) {
    EXPECT_GE(merger->merged().Estimate(key), count);
  }
}

TEST(HeavyHittersTest, WorkerMemoryBoundedByCapacity) {
  HeavyHitterWorker worker(32, std::make_shared<SummaryBoard>());
  engine::OperatorContext ctx;
  worker.Open(ctx);
  class NullEmitter : public engine::Emitter {
   public:
    void Emit(const engine::Message&) override {}
  } emitter;
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    engine::Message m;
    m.key = rng.UniformInt(5000);
    m.tag = kTagItem;
    worker.Process(m, &emitter);
  }
  EXPECT_LE(worker.MemoryCounters(), 32u);
}

}  // namespace
}  // namespace apps
}  // namespace pkgstream
