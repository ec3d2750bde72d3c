// Copyright 2026 The pkgstream Authors.
// Tests for the distributed heavy-hitter topology of Section VI-C:
// SPACESAVING workers feeding a merger through the SummaryBoard.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/heavy_hitters.h"
#include "common/random.h"
#include "engine/logical_runtime.h"
#include "engine/threaded_runtime.h"
#include "stats/frequency.h"
#include "workload/static_distribution.h"
#include "workload/zipf.h"

namespace pkgstream {
namespace apps {
namespace {

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
