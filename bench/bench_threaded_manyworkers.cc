// Copyright 2026 The pkgstream Authors.
// The sequel's regime through the real engine (ROADMAP "sharded many-worker
// runtime"): W in {100, 500, 1000} worker instances executed on <= 8 shard
// threads (ThreadedRuntimeOptions::shards), per technique in
// {PKG-L, D-Choices, W-Choices, SG, KG}. Until this bench, the
// D-Choices / W-Choices family had only ever run through the *simulated*
// router sweep (bench_seq_dchoices); here every message crosses the actual
// lock-free mailboxes of a sharded ThreadedRuntime.
//
// Latency sweep (deterministic, baseline-pinned): each cell replays the
// byte-identical checksummed open-loop Poisson schedule + Zipf(1.5,K=1000) key
// sequence (the bench_latency_under_load methodology, shared through
// bench/open_loop_cell.h) through 1 source -> W kVirtualService LatencySinks
// with service_us = 5000 — per-worker capacity exactly 200 msgs/sec,
// host-independent. Offered load is 40*W msgs/sec (20% of aggregate capacity):
// nobody should hurt, except that a single head key carries p1 ~ 0.39 of the
// stream:
//
//   KG     the head's worker is offered ~0.39*40*W >> 200 msgs/sec —
//          saturated at every W; its queue grows for the whole cell.
//   PKG-L  the head is split over its TWO candidates (~0.195 share each):
//          still >> 200 msgs/sec at W >= 100 — the Section IV wall; the
//          sequel's point is that plain PKG fails exactly here.
//   D/W-Choices detect the head and spread it over d_k ~ p*W/eps (or all)
//          workers: every worker stays far below capacity and the tail
//          stays within a small factor of SG — the sequel's headline,
//          pinned by the committed baseline at W >= 500.
//
// With a single source the sharded runtime's routing and per-sink arrival
// orders are byte-identical to one shard per instance
// (engine_threaded_sharded_test pins this), so the quantiles land in the
// deterministic "metrics" section and are exact-pinned on any host, under
// any sanitizer. D/W-Choices run with heavy_min_messages = 100 (vs the
// 1000-message default): these cells replay short streams and the warm-up
// transient — heavy keys still on the 2-choice path — must stay well under
// 1% of the stream so it cannot masquerade as steady-state tail.

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/open_loop_cell.h"
#include "bench/report.h"
#include "partition/factory.h"
#include "workload/static_distribution.h"
#include "workload/zipf.h"

namespace pkgstream {
namespace {

/// Cell config, mirroring bench_seq_dchoices: heavy detection guaranteed
/// (sketch capacity 2W covers every key above the 1/W threshold), D-Choices
/// flagged from half the Section IV wall.
partition::PartitionerConfig ConfigFor(partition::Technique technique,
                                       uint32_t workers, uint64_t seed) {
  partition::PartitionerConfig config;
  config.technique = technique;
  config.sources = 1;
  config.workers = workers;
  config.seed = seed;
  config.sketch_capacity = 2 * workers;
  if (technique == partition::Technique::kDChoices) {
    config.heavy_threshold_factor = 0.5;
  }
  if (technique == partition::Technique::kDChoices ||
      technique == partition::Technique::kWChoices) {
    // Short replayed streams: keep the detection warm-up (heavy keys still
    // routing through 2 choices) well under 1% of the cell so the
    // steady-state tail quantiles are not a warm-up artifact.
    config.heavy_min_messages = 100;
  }
  return config;
}

}  // namespace
}  // namespace pkgstream

int main(int argc, char** argv) {
  using namespace pkgstream;
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const char* title =
      "Many-worker sharded runtime: D/W-Choices vs PKG at W=100-1000";
  const char* paper_ref =
      "Nasir et al. 2016 (When Two Choices Are Not Enough) run through the "
      "real sharded engine; Nasir et al. 2015 Section V methodology";
  bench::PrintBanner(title, paper_ref, args);
  bench::Report report("bench_threaded_manyworkers", title, paper_ref, args);

  // Flat stream length per cell: the D/W warm-up transient (see file
  // comment) is a fixed message count, so a fixed length keeps its share
  // of every cell identical.
  uint64_t messages = args.quick ? 20000 : 40000;
  if (args.full) messages = 100000;
  messages =
      args.flags.GetIntInRange("messages", messages, 1, bench::kMaxMessages);
  const uint64_t service_us =
      args.flags.GetIntInRange("service_us", 5000, 1, bench::kMaxServiceUs);
  const size_t shards =
      args.flags.GetIntInRange("shards", 8, 1, bench::kMaxThreads);

  const std::vector<uint32_t> worker_counts = {100, 500, 1000};
  const std::vector<std::pair<partition::Technique, std::string>> techniques =
      {{partition::Technique::kPkgLocal, "PKG-L"},
       {partition::Technique::kDChoices, "D-Choices"},
       {partition::Technique::kWChoices, "W-Choices"},
       {partition::Technique::kShuffle, "SG"},
       {partition::Technique::kHashing, "KG"}};

  auto dist = std::make_shared<const workload::StaticDistribution>(
      workload::ZipfWeights(1000, 1.5), "zipf(1.5,K=1000)");

  report.AddMetric("messages_per_cell", static_cast<double>(messages));
  report.AddMetric("service_us", static_cast<double>(service_us));
  report.AddMetric("shards", static_cast<double>(shards));

  std::cout << "shards=" << shards << "  service_us=" << service_us
            << "  messages_per_cell=" << messages << "  keys=" << dist->name()
            << " (p1=" << dist->P1() << ")\n\n";

  Table table(bench::LatencyColumns({"W", "technique"}));
  uint64_t worst_p999 = 0;
  uint64_t saturated_total = 0;
  for (uint32_t w : worker_counts) {
    // Offered load scales with the cluster: 20% of aggregate capacity.
    const uint64_t load = bench::FifthOfCapacity(w, service_us);
    const std::string w_prefix = "W=" + std::to_string(w) + "/";
    report.AddMetric(w_prefix + "load", static_cast<double>(load));
    const bench::OpenLoopInput input = bench::MakeOpenLoopInput(
        load, messages, dist, args.seed, w, w_prefix, &report);

    for (const auto& [technique, name] : techniques) {
      bench::OpenLoopCellSpec spec;
      spec.routing = ConfigFor(technique, w, args.seed);
      spec.runtime.queue_capacity = 128;
      spec.runtime.shards = shards;
      spec.service_us = service_us;
      const bench::OpenLoopCell cell = bench::OpenLoopCell::Run(spec, input);
      const auto h =
          bench::ReportLatency(cell, w_prefix + name + "/",
                               {std::to_string(w), name}, &report, &table);
      worst_p999 = std::max(worst_p999, h.P999());
      saturated_total += h.saturated();
    }
  }
  report.AddTable(std::move(table));

  report.AddText(
      "Expected shape (the sequel's headline, through the real sharded\n"
      "engine): at 20% average utilization the only danger is the Zipf head\n"
      "(p1~0.39). KG parks it on one worker and PKG-L on a fixed pair, so\n"
      "both saturate those workers at every W here and their tails grow\n"
      "unboundedly for the length of the cell. D-Choices / W-Choices detect\n"
      "the head and spread it over ~p*W/eps (or all) workers, so their p99\n"
      "stays within a small factor of shuffle grouping's — two choices are\n"
      "not enough at W >= 100, a few more for the head suffice.");

  // One greppable line for the CI reproduction-gate job.
  std::cout << "[bench_threaded_manyworkers] manyworkers-complete:"
            << " worker_counts=" << worker_counts.size()
            << " techniques=" << techniques.size() << " shards=" << shards
            << " worst_p999_us=" << worst_p999
            << " saturated=" << saturated_total << "\n";
  return bench::Finish(report, args);
}
