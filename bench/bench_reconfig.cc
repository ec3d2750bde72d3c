// Copyright 2026 The pkgstream Authors.
// Fault injection + live reconfiguration through the real sharded engine
// (ROADMAP "elastic scaling and live key migration"; ISSUE 10): each cell
// replays a byte-identical checksummed open-loop Poisson schedule through
// 1 source -> W kVirtualService LatencySinks while a FaultPlan kills
// workers 1-3, stalls worker 0, slows worker 4 to half speed, and rejoins
// the crashed workers — at W in {50, 500} x {PKG-L, D-Choices, SG,
// KG+migration}.
//
// The outage timeline is proportional to the schedule horizon H:
//
//   t=0 ........ 0.3H ............. 0.6H ........... H
//   | steady     | crash 1,2,3      | rejoin 1,2,3   |
//   |            | stall 0, slow 4  |                |
//   |  phase 0   |     phase 1      |    phase 2     |
//   |  (steady)  |    (outage)      |   (recovery)   |
//
// (stall and slowdown windows end mid-outage, so their backlog drains
// before the recovery phase starts and phase 2 isolates the *crash*
// recovery). Every phase's latency quantiles are deterministic: routing
// events are applied at exact schedule positions (the driver splits
// batches at plan boundaries) and service faults fold into the virtual
// Lindley recursion, so the committed baseline exact-pins the numbers on
// any host, SIMD on or off, sanitizers on or off.
//
// The baseline gates the robustness claims:
//  * conservation — zero loss across crash + rejoin, every cell;
//  * outage isolation — no message scheduled during [t1, t2) lands on a
//    crashed worker;
//  * recovery — post-rejoin p99 within a small factor of steady-state p99
//    for the PKG family and SG (the cluster heals, queues do not linger);
//  * the stall is visible — the outage phase's max latency carries the
//    injected vacation (the fault actually bit);
//  * KG+migration — crash-driven failovers happen, the rejoin hands every
//    key back (keys_moved >= 2x failovers), and per-worker load stays
//    bounded during the outage while the live migration path is active.
//
// Offered load is 20% of aggregate capacity with mild skew (Zipf 0.5):
// steady state is comfortable everywhere, so any latency signature in
// phases 1-2 is the fault plan's doing, not an overload artifact (the
// saturation regime is bench_threaded_manyworkers' subject).

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/open_loop_cell.h"
#include "bench/report.h"
#include "common/logging.h"
#include "engine/fault_injection.h"
#include "partition/factory.h"
#include "partition/rebalancing.h"
#include "stats/latency_histogram.h"
#include "workload/static_distribution.h"
#include "workload/zipf.h"

namespace pkgstream {
namespace {

partition::PartitionerConfig ConfigFor(partition::Technique technique,
                                       uint32_t workers, uint64_t seed) {
  partition::PartitionerConfig config;
  config.technique = technique;
  config.sources = 1;
  config.workers = workers;
  config.seed = seed;
  if (technique == partition::Technique::kDChoices) {
    config.sketch_capacity = 2 * workers;
    config.heavy_threshold_factor = 0.5;
    config.heavy_min_messages = 100;
  }
  if (technique == partition::Technique::kRebalancing) {
    // The live-migration cell: the periodic rebalancer keeps smoothing
    // alive workers *during* the outage, on top of crash failovers.
    config.rebalance_period = 2000;
    config.rebalance_threshold = 0.10;
  }
  return config;
}

/// Phase-1 (outage) load from the per-instance phase histograms: records
/// on crashed workers (must be zero — routed before t1, a message scheduled
/// in the outage can only reach an alive worker) and the max/avg load over
/// the workers that stayed up.
struct OutageLoad {
  uint64_t dead_routed = 0;
  double alive_imbalance = 0;
};

OutageLoad MeasureOutage(const bench::OpenLoopCell& cell,
                         const std::vector<uint32_t>& crashed) {
  OutageLoad outage;
  uint64_t alive_max = 0, alive_sum = 0;
  uint32_t alive_n = 0;
  for (uint32_t w = 0; w < cell.workers(); ++w) {
    const uint64_t n = cell.Sink(w).phase_histogram(1).count();
    if (std::find(crashed.begin(), crashed.end(), w) != crashed.end()) {
      outage.dead_routed += n;
    } else {
      alive_max = std::max(alive_max, n);
      alive_sum += n;
      ++alive_n;
    }
  }
  outage.alive_imbalance =
      alive_sum == 0 ? 0.0
                     : static_cast<double>(alive_max) /
                           (static_cast<double>(alive_sum) / alive_n);
  return outage;
}

}  // namespace
}  // namespace pkgstream

int main(int argc, char** argv) {
  using namespace pkgstream;
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const char* title =
      "Fault injection + live reconfiguration: crash/stall/rejoin at "
      "W=50-500";
  const char* paper_ref =
      "Nasir et al. 2015 Section V methodology under fail-stop faults; "
      "Section VIII rebalancing question answered with live migration";
  bench::PrintBanner(title, paper_ref, args);
  bench::Report report("bench_reconfig", title, paper_ref, args);

  uint64_t messages = args.quick ? 20000 : 40000;
  if (args.full) messages = 100000;
  messages =
      args.flags.GetIntInRange("messages", messages, 1, bench::kMaxMessages);
  const uint64_t service_us =
      args.flags.GetIntInRange("service_us", 5000, 1, bench::kMaxServiceUs);
  const size_t shards =
      args.flags.GetIntInRange("shards", 8, 1, bench::kMaxThreads);
  PKGSTREAM_CHECK(messages >= 1000) << "--messages must be >= 1000";

  const std::vector<uint32_t> worker_counts = {50, 500};
  const std::vector<std::pair<partition::Technique, std::string>> techniques =
      {{partition::Technique::kPkgLocal, "PKG-L"},
       {partition::Technique::kDChoices, "D-Choices"},
       {partition::Technique::kShuffle, "SG"},
       {partition::Technique::kRebalancing, "KG-mig"}};
  const std::vector<uint32_t> crashed = {1, 2, 3};

  // Mild skew: the head key stays well under every worker's capacity at
  // both W (see file comment) — steady state is never saturated.
  auto dist = std::make_shared<const workload::StaticDistribution>(
      workload::ZipfWeights(1000, 0.5), "zipf(0.5,K=1000)");

  report.AddMetric("messages_per_cell", static_cast<double>(messages));
  report.AddMetric("service_us", static_cast<double>(service_us));
  report.AddMetric("shards", static_cast<double>(shards));

  std::cout << "shards=" << shards << "  service_us=" << service_us
            << "  messages_per_cell=" << messages << "  keys=" << dist->name()
            << " (p1=" << dist->P1() << ")\n"
            << "faults: crash workers 1-3 at 0.3H, stall worker 0 + slow "
               "worker 4 (x2) for 0.15H, rejoin at 0.6H\n\n";

  Table table({"W", "technique", "steady p99", "outage p99", "outage max",
               "recovery p99", "recovery/steady", "failovers"});
  uint64_t total_count = 0;
  uint64_t total_reconfigs = 0;
  for (uint32_t w : worker_counts) {
    // Offered load: 20% of aggregate capacity, so the schedule horizon is
    // H = messages / load and the outage timeline scales with --messages.
    const uint64_t load = bench::FifthOfCapacity(w, service_us);
    const uint64_t horizon_us = messages * 1000000 / load;
    const uint64_t t1 = 3 * horizon_us / 10;
    const uint64_t t2 = 6 * horizon_us / 10;
    const uint64_t window_us = (t2 - t1) / 2;  // stall/slowdown length

    std::vector<engine::FaultEvent> events;
    for (uint32_t c : crashed) {
      events.push_back({engine::FaultKind::kCrash, c, t1, 0, 1.0});
    }
    events.push_back({engine::FaultKind::kStall, 0, t1, window_us, 1.0});
    events.push_back(
        {engine::FaultKind::kSlowdown, 4, t1, window_us, 2.0});
    for (uint32_t c : crashed) {
      events.push_back({engine::FaultKind::kRejoin, c, t2, 0, 1.0});
    }
    auto plan = engine::FaultPlan::Create(w, std::move(events));
    PKGSTREAM_CHECK_OK(plan.status());

    const std::string w_prefix = "W=" + std::to_string(w) + "/";
    report.AddMetric(w_prefix + "load", static_cast<double>(load));
    report.AddMetric(w_prefix + "t1_us", static_cast<double>(t1));
    report.AddMetric(w_prefix + "stall_us", static_cast<double>(window_us));
    const bench::OpenLoopInput input = bench::MakeOpenLoopInput(
        load, messages, dist, args.seed, w, w_prefix, &report);

    for (const auto& [technique, name] : techniques) {
      bench::OpenLoopCellSpec spec;
      spec.routing = ConfigFor(technique, w, args.seed);
      spec.runtime.queue_capacity = 128;
      spec.runtime.shards = shards;
      spec.service_us = service_us;
      spec.faults = &*plan;
      spec.phase_boundaries_us = {t1, t2};
      const bench::OpenLoopCell cell = bench::OpenLoopCell::Run(spec, input);
      const stats::LatencyHistogram steady = cell.PhaseHistogram(0);
      const stats::LatencyHistogram during = cell.PhaseHistogram(1);
      const stats::LatencyHistogram recovery = cell.PhaseHistogram(2);
      const uint64_t count = steady.count() + during.count() + recovery.count();
      PKGSTREAM_CHECK(count == messages)
          << "message loss across crash+rejoin: injected " << messages
          << ", recorded " << count;
      const uint64_t reconfigs = cell.driver().reconfigs_applied;
      const OutageLoad outage = MeasureOutage(cell, crashed);
      const std::string prefix = w_prefix + name + "/";
      report.AddMetric(prefix + "count", static_cast<double>(count));
      report.AddMetric(prefix + "reconfigs", static_cast<double>(reconfigs));
      report.AddMetric(prefix + "outage_dead_routed",
                       static_cast<double>(outage.dead_routed));
      report.AddMetric(prefix + "steady_p99",
                       static_cast<double>(steady.P99()));
      report.AddMetric(prefix + "during_p99",
                       static_cast<double>(during.P99()));
      report.AddMetric(prefix + "during_max",
                       static_cast<double>(during.max()));
      report.AddMetric(prefix + "during_imbalance", outage.alive_imbalance);
      report.AddMetric(prefix + "recovery_p50",
                       static_cast<double>(recovery.P50()));
      report.AddMetric(prefix + "recovery_p99",
                       static_cast<double>(recovery.P99()));
      std::string failovers = "-";
      if (technique == partition::Technique::kRebalancing) {
        // The KG-migration replica of the single source.
        auto* kg = dynamic_cast<const partition::RebalancingKeyGrouping*>(
            cell.runtime()->GetPartitioner(cell.spout(), cell.sink(), 0));
        PKGSTREAM_CHECK(kg != nullptr);
        const partition::RebalancingStats& migration = kg->stats();
        report.AddMetric(prefix + "failovers",
                         static_cast<double>(migration.failovers));
        report.AddMetric(prefix + "keys_moved",
                         static_cast<double>(migration.keys_moved));
        report.AddMetric(prefix + "state_moved",
                         static_cast<double>(migration.state_moved));
        failovers = std::to_string(migration.failovers);
      }
      total_count += count;
      total_reconfigs += reconfigs;
      const double ratio = steady.P99() == 0
                               ? 0.0
                               : static_cast<double>(recovery.P99()) /
                                     static_cast<double>(steady.P99());
      char ratio_buf[16];
      std::snprintf(ratio_buf, sizeof(ratio_buf), "%.2fx", ratio);
      table.AddRow({std::to_string(w), name, bench::FormatUs(steady.P99()),
                    bench::FormatUs(during.P99()),
                    bench::FormatUs(during.max()),
                    bench::FormatUs(recovery.P99()), ratio_buf, failovers});
    }
  }
  report.AddTable(std::move(table));

  report.AddText(
      "Expected shape: steady state is comfortable (20% utilization, mild\n"
      "skew), so phase 0 p99 sits near the 5ms service time everywhere.\n"
      "During the outage the crashed workers' load spreads over the\n"
      "survivors, the stalled worker's vacation shows up as the phase-1\n"
      "max, and the slowed worker doubles its service time — p99 rises but\n"
      "nothing melts down. After the rejoin the cluster heals: recovery\n"
      "p99 returns to within a small factor of steady for the PKG family\n"
      "and SG. KG+migration pays for the same robustness with state\n"
      "transfer: crash-driven failovers during the outage, every key\n"
      "handed back at rejoin (keys_moved >= 2x failovers), imbalance\n"
      "bounded while the live migration path is active. Every number is\n"
      "deterministic (virtual-time service, schedule-position faults):\n"
      "the baseline exact-pins all quantiles.");

  // One greppable line for the CI reproduction-gate job.
  std::cout << "[bench_reconfig] reconfig-complete:"
            << " cells=" << worker_counts.size() * techniques.size()
            << " crashed_per_cell=" << crashed.size()
            << " reconfigs=" << total_reconfigs
            << " conserved=" << total_count << "\n";
  return bench::Finish(report, args);
}
