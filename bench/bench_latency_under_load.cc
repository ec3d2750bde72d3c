// Copyright 2026 The pkgstream Authors.
// Tail latency under open-loop offered load (ROADMAP "latency under load";
// the paper's Section V cluster experiment: "the average latency with KG is
// up to 45% larger than with PKG" — and the *tail* is where the hot worker
// really shows).
//
// Sweep: offered load (msgs/sec, Poisson arrivals) x technique in
// {KG, SG, PKG-L}, Zipf(s=1.5, K=1000) keys, 1 source -> 4 workers.
// Each cell replays the byte-identical arrival schedule and key sequence
// (generated once per load, checksummed into the report), injected by the
// engine::OpenLoopDriver: the offered load never adapts to the system
// (open loop), and each message's latency is measured from its *scheduled*
// arrival time stamped in Message::ts, so coordinated omission cannot
// flatter the tail.
//
// Sinks run the kVirtualService model (engine/open_loop.h): each worker is
// a deterministic single-server queue with service_us = 50us per message —
// per-worker capacity exactly 20k msgs/sec, independent of host speed. With
// a single source the per-sink arrival order equals the injection order, so
// the merged latency histograms are bit-deterministic: p50/p95/p99/p999 land
// in the report's "metrics" section and are exact-pinned by the committed
// baseline (bench/baselines/bench_latency_under_load.json) on any host,
// under any sanitizer. Wall-clock injection behaviour (duration, max
// injector lag) lands in host_metrics.
//
// Why the techniques separate: at s=1.5, K=1000 the head key carries
// p1 ~ 0.38 of the stream. KG sends all of it to one worker — the hot
// worker's share (~0.54) exceeds per-worker capacity once the offered load
// passes ~37k/s, its queue grows for the rest of the cell, and the tail
// explodes. PKG-L splits the head across two workers (~0.27 share) and SG
// spreads everything, so both stay far below capacity at the same load.
// The baseline pins that shape: latency monotone in offered load per
// technique, and KG's tail >> PKG-L's at the top load.
//
// The cell itself (input generation, topology, driver, latency block) is
// bench/open_loop_cell.h, shared with bench_threaded_manyworkers and
// bench_reconfig.

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

int main(int argc, char** argv) {
  using namespace pkgstream;
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const char* title =
      "Tail latency under open-loop load: KG vs SG vs PKG-L on skewed keys";
  const char* paper_ref =
      "Nasir et al. 2015, Section V latency discussion (KG latency up to "
      "45% above PKG); open-loop methodology avoids coordinated omission";
  bench::PrintBanner(title, paper_ref, args);
  bench::Report report("bench_latency_under_load", title, paper_ref, args);

  // Each cell replays cell_ms milliseconds of Poisson arrivals at the
  // offered load. 500ms cells keep the quick gate fast while the top load
  // overdrives KG's hot worker long enough for an unambiguous tail.
  uint64_t cell_ms = args.quick ? 500 : 2000;
  if (args.full) cell_ms = 8000;
  cell_ms =
      args.flags.GetIntInRange("cell_ms", cell_ms, 1, bench::kMaxCellMs);
  const uint64_t service_us =
      args.flags.GetIntInRange("service_us", 50, 1, bench::kMaxServiceUs);
  const auto workers = static_cast<uint32_t>(
      args.flags.GetIntInRange("workers", 4, 1, bench::kMaxThreads));

  // Per-worker capacity is 1e6/service_us = 20k msgs/sec (80k aggregate).
  // 8k/s: everyone idle. 32k/s: KG's hot worker (~0.54 share -> ~17.3k/s)
  // runs hot but stable. 48k/s: the hot worker is offered ~25.9k/s — over
  // capacity, unbounded queue growth for the rest of the cell.
  const std::vector<uint64_t> loads = {8000, 32000, 48000};
  const std::vector<std::pair<partition::Technique, std::string>> techniques =
      {{partition::Technique::kHashing, "KG"},
       {partition::Technique::kShuffle, "SG"},
       {partition::Technique::kPkgLocal, "PKG-L"}};

  auto dist = std::make_shared<const workload::StaticDistribution>(
      workload::ZipfWeights(1000, 1.5), "zipf(1.5,K=1000)");

  report.AddMetric("cell_ms", static_cast<double>(cell_ms));
  report.AddMetric("service_us", static_cast<double>(service_us));
  report.AddMetric("workers", static_cast<double>(workers));

  std::cout << "workers=" << workers << "  service_us=" << service_us
            << "  cell_ms=" << cell_ms << "  keys=" << dist->name()
            << " (p1=" << dist->P1() << ")\n\n";

  Table table(bench::LatencyColumns({"load msg/s", "technique"}));
  uint64_t worst_p999 = 0;
  uint64_t saturated_total = 0;
  for (uint64_t load : loads) {
    // One schedule + key sequence per load, shared by every technique.
    const uint64_t messages = load * cell_ms / 1000;
    const std::string load_prefix = "load=" + std::to_string(load) + "/";
    report.AddMetric(load_prefix + "messages",
                     static_cast<double>(messages));
    const bench::OpenLoopInput input = bench::MakeOpenLoopInput(
        load, messages, dist, args.seed, load, load_prefix, &report);

    for (const auto& [technique, name] : techniques) {
      bench::OpenLoopCellSpec spec;
      spec.routing.technique = technique;
      spec.routing.workers = workers;
      spec.routing.seed = args.seed;
      spec.service_us = service_us;
      const bench::OpenLoopCell cell = bench::OpenLoopCell::Run(spec, input);
      const std::string prefix = load_prefix + name + "/";
      const auto h = bench::ReportLatency(
          cell, prefix, {std::to_string(load), name}, &report, &table);
      // Inject-lag quantiles (per message, from the driver's lag
      // histogram): p99 near zero with a large max means one scheduling
      // spike; p99 near the max means sustained injector backpressure.
      const auto& lag = cell.driver().lag_histogram;
      report.AddHostMetric(prefix + "inject_lag_p50_us",
                           static_cast<double>(lag.P50()));
      report.AddHostMetric(prefix + "inject_lag_p99_us",
                           static_cast<double>(lag.P99()));
      report.AddHostMetric(prefix + "inject_lag_p999_us",
                           static_cast<double>(lag.P999()));
      worst_p999 = std::max(worst_p999, h.P999());
      saturated_total += h.saturated();
    }
  }
  report.AddTable(std::move(table));
  report.AddText(
      "Expected shape: per technique, every latency quantile is monotone\n"
      "nondecreasing in the offered load; at the top load KG's hot worker\n"
      "(head key p1~0.38 + its hash share) is offered more than its\n"
      "capacity and the queue grows for the rest of the cell, while PKG-L\n"
      "splits the head across two workers and stays far below capacity —\n"
      "so PKG-L's p99/p999 sit orders of magnitude below KG's. Latency is\n"
      "measured from each message's *scheduled* arrival (open loop): the\n"
      "backlog counts against the tail instead of silently slowing the\n"
      "injector (coordinated omission).");

  // One greppable line for the CI reproduction-gate job.
  std::cout << "[bench_latency_under_load] latency-under-load-complete:"
            << " loads=" << loads.size() << " techniques=" << techniques.size()
            << " worst_p999_us=" << worst_p999
            << " saturated=" << saturated_total << "\n";
  return bench::Finish(report, args);
}
