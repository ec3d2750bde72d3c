// Copyright 2026 The pkgstream Authors.
// Cross-module integration tests: trace replay drives identical runs,
// the two engine runtimes agree, and the full pipeline (dataset ->
// partitioner -> engine -> application) produces consistent results.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "apps/wordcount.h"
#include "engine/event_sim.h"
#include "engine/logical_runtime.h"
#include "simulation/runner.h"
#include "workload/dataset.h"
#include "workload/trace.h"

namespace pkgstream {
namespace {

TEST(IntegrationTest, TraceReplayReproducesRoutingExactly) {
  // Materialize a WP stream prefix to a trace file, then run the same
  // technique twice from the trace: identical loads, bit for bit.
  const auto& wp = workload::GetDataset(workload::DatasetId::kWP);
  auto stream = workload::MakeKeyStream(wp, 0.002, 42);
  ASSERT_TRUE(stream.ok());
  std::string path = testing::TempDir() + "/pkgstream_integration.trace";
  const uint64_t messages = 50000;
  ASSERT_TRUE(workload::WriteTrace(path, stream->get(), messages).ok());

  auto run = [&]() {
    auto reader = workload::TraceKeyStream::Open(path);
    EXPECT_TRUE(reader.ok());
    simulation::Feed feed = simulation::MakeKeyFeed(reader->get());
    simulation::RoutingConfig config;
    config.partitioner.technique = partition::Technique::kPkgLocal;
    config.partitioner.sources = 3;
    config.partitioner.workers = 7;
    config.messages = messages;
    auto result = simulation::RunRouting(config, feed);
    EXPECT_TRUE(result.ok());
    return result->loads;
  };
  EXPECT_EQ(run(), run());
  std::remove(path.c_str());
}

TEST(IntegrationTest, TraceMatchesLiveStream) {
  // Replaying a trace equals generating the stream directly.
  const auto& ln2 = workload::GetDataset(workload::DatasetId::kLN2);
  auto live = workload::MakeKeyStream(ln2, 0.02, 9);
  ASSERT_TRUE(live.ok());
  std::string path = testing::TempDir() + "/pkgstream_trace_match.trace";
  {
    auto source = workload::MakeKeyStream(ln2, 0.02, 9);
    ASSERT_TRUE(source.ok());
    ASSERT_TRUE(workload::WriteTrace(path, source->get(), 20000).ok());
  }
  auto reader = workload::TraceKeyStream::Open(path);
  ASSERT_TRUE(reader.ok());
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ((*reader)->Next(), (*live)->Next()) << "at " << i;
  }
  std::remove(path.c_str());
}

TEST(IntegrationTest, EventSimAndLogicalRuntimeAgreeOnCounts) {
  // The discrete-event simulator reorders deliveries in time but must not
  // lose or duplicate messages: final aggregator totals match the
  // deterministic runtime exactly (same stream, same topology, no ticks).
  const uint64_t messages = 20000;
  auto totals_logical = [&] {
    apps::WordCountTopology wc = apps::MakeWordCountTopology(
        partition::Technique::kHashing, 1, 4, 0, 5, 42);
    auto rt = engine::LogicalRuntime::Create(&wc.topology);
    EXPECT_TRUE(rt.ok());
    auto stream = workload::MakeKeyStream(
        workload::GetDataset(workload::DatasetId::kCT), 0.05, 11);
    EXPECT_TRUE(stream.ok());
    for (uint64_t i = 0; i < messages; ++i) {
      engine::Message m;
      m.key = (*stream)->Next();
      m.tag = apps::kTagWord;
      (*rt)->Inject(wc.spout, 0, m);
    }
    (*rt)->Finish();
    auto* agg = static_cast<apps::TopKAggregator*>(
        (*rt)->GetOperator(wc.aggregator, 0));
    return std::map<Key, uint64_t>(agg->totals().begin(),
                                   agg->totals().end());
  }();

  auto totals_sim = [&] {
    apps::WordCountTopology wc = apps::MakeWordCountTopology(
        partition::Technique::kHashing, 1, 4, 0, 5, 42);
    auto stream = workload::MakeKeyStream(
        workload::GetDataset(workload::DatasetId::kCT), 0.05, 11);
    EXPECT_TRUE(stream.ok());
    engine::EventSimOptions options;
    options.messages = messages;
    options.source_service_us = 5;
    options.worker_overhead_us = 10;
    options.network_delay_us = 50;
    auto sim =
        engine::EventSimulator::Create(&wc.topology, stream->get(), options);
    EXPECT_TRUE(sim.ok());
    engine::EventSimReport report = (*sim)->Run();
    EXPECT_EQ(report.roots_acked, messages);
    // The event sim has no Close(); counters hold running totals under KG,
    // so read them directly off the counter instances.
    std::map<Key, uint64_t> totals;
    for (uint32_t w = 0; w < 4; ++w) {
      auto* counter = static_cast<apps::WordCountCounter*>(
          (*sim)->GetOperator(wc.counter, w));
      for (const auto& [key, count] : counter->counts()) {
        totals[key] += count;
      }
    }
    return totals;
  }();

  EXPECT_EQ(totals_logical, totals_sim);
}

TEST(IntegrationTest, AllTechniquesAgreeOnWordCountResults) {
  // The end answer of the application (the word totals) must be identical
  // under every partitioning technique; only load placement may differ.
  std::map<Key, uint64_t> reference;
  for (auto technique :
       {partition::Technique::kHashing, partition::Technique::kShuffle,
        partition::Technique::kPkgLocal, partition::Technique::kWChoices}) {
    apps::WordCountTopology wc =
        apps::MakeWordCountTopology(technique, 2, 5, 500, 5, 42);
    auto rt = engine::LogicalRuntime::Create(&wc.topology);
    ASSERT_TRUE(rt.ok()) << partition::TechniqueName(technique);
    auto stream = workload::MakeKeyStream(
        workload::GetDataset(workload::DatasetId::kLN2), 0.01, 3);
    ASSERT_TRUE(stream.ok());
    for (int i = 0; i < 30000; ++i) {
      engine::Message m;
      m.key = (*stream)->Next();
      m.tag = apps::kTagWord;
      (*rt)->Inject(wc.spout, static_cast<SourceId>(i % 2), m);
    }
    (*rt)->Finish();
    auto* agg = static_cast<apps::TopKAggregator*>(
        (*rt)->GetOperator(wc.aggregator, 0));
    std::map<Key, uint64_t> totals(agg->totals().begin(),
                                   agg->totals().end());
    if (reference.empty()) {
      reference = totals;
    } else {
      EXPECT_EQ(totals, reference) << partition::TechniqueName(technique);
    }
  }
}

TEST(IntegrationTest, GraphPipelineEndToEnd) {
  // Edge stream -> keyed source split -> PKG -> imbalance: the full Q3
  // pipeline at miniature scale, asserting the headline property.
  const auto& sl1 = workload::GetDataset(workload::DatasetId::kSL1);
  for (auto split :
       {simulation::SourceSplit::kShuffle, simulation::SourceSplit::kKeyed}) {
    auto edges = workload::MakeEdgeStream(sl1, 0.2, 42);
    ASSERT_TRUE(edges.ok());
    simulation::Feed feed = simulation::MakeEdgeFeed(edges->get());
    simulation::RoutingConfig config;
    config.partitioner.technique = partition::Technique::kPkgLocal;
    config.partitioner.sources = 5;
    config.partitioner.workers = 10;
    config.messages = 100000;
    config.source_split = split;
    auto result = simulation::RunRouting(config, feed);
    ASSERT_TRUE(result.ok());
    // Balanced workers regardless of the source split.
    EXPECT_LT(result->imbalance.avg_fraction, 1e-3);
  }
}

}  // namespace
}  // namespace pkgstream
