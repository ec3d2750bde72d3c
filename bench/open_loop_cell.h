// Copyright 2026 The pkgstream Authors.
// The open-loop cell shared by bench_latency_under_load,
// bench_threaded_manyworkers and bench_reconfig (the paper's Section V
// latency methodology; docs/BENCHMARKS.md).
//
// A sweep point generates one input — a Poisson arrival schedule and an iid
// key sequence, checksummed into the report — and replays it, byte for
// byte, into one cell per technique: 1 source -> W kVirtualService
// LatencySinks on a ThreadedRuntime, injected unpaced by the
// engine::OpenLoopDriver. Latency is measured from each message's scheduled
// arrival and the sinks' service is virtual, so the merged histograms are
// deterministic on any host; only wall time and inject lag are host metrics.

#ifndef PKGSTREAM_BENCH_OPEN_LOOP_CELL_H_
#define PKGSTREAM_BENCH_OPEN_LOOP_CELL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/report.h"
#include "engine/fault_injection.h"
#include "engine/open_loop.h"
#include "engine/threaded_runtime.h"
#include "engine/topology.h"
#include "partition/factory.h"
#include "stats/latency_histogram.h"
#include "workload/static_distribution.h"

namespace pkgstream {
namespace bench {

/// \brief One sweep point's offered input, replayed into every cell.
struct OpenLoopInput {
  std::vector<uint64_t> times;  ///< scheduled arrivals, microseconds
  std::vector<Key> keys;
};

/// \brief Draws `messages` Poisson arrivals at `load` msgs/sec (seeded
/// `seed ^ salt`) and iid keys from `dist` (seeded `seed * 31 + salt`);
/// `salt` is the sweep coordinate (the load, or W). Adds the mod-2^32 sums
/// as `<prefix>sched_checksum` and `<prefix>key_checksum` — metrics are
/// doubles and must stay exact — so every capture pins the input it saw.
OpenLoopInput MakeOpenLoopInput(
    uint64_t load, uint64_t messages,
    const std::shared_ptr<const workload::StaticDistribution>& dist,
    uint64_t seed, uint64_t salt, const std::string& prefix, Report* report);

/// \brief Offered load at 20% of the aggregate capacity of `workers`
/// virtual-service sinks, each serving 1e6/service_us msgs/sec (integer
/// division). CHECK-fails, naming --service_us and W, when it rounds to 0.
uint64_t FifthOfCapacity(uint32_t workers, uint64_t service_us);

/// \brief What one cell runs.
struct OpenLoopCellSpec {
  /// The source -> sink edge; `routing.workers` is the sink parallelism.
  partition::PartitionerConfig routing;
  engine::ThreadedRuntimeOptions runtime;
  uint64_t service_us = 0;  ///< virtual service time per message
  /// Optional; must outlive the cell. The driver applies its crashes and
  /// rejoins, the sinks fold its stall/slowdown windows into service.
  const engine::FaultPlan* faults = nullptr;
  std::vector<uint64_t> phase_boundaries_us;  ///< LatencySink::Options
};

/// \brief A finished cell. It owns the topology together with the runtime
/// that points into it, so the two live and die together.
class OpenLoopCell {
 public:
  /// Builds the topology, replays `input` unpaced and calls Finish().
  /// CHECK-fails on message loss.
  static OpenLoopCell Run(const OpenLoopCellSpec& spec,
                          const OpenLoopInput& input);

  engine::ThreadedRuntime* runtime() const { return runtime_.get(); }
  engine::NodeId spout() const { return spout_; }
  engine::NodeId sink() const { return sink_; }
  uint32_t workers() const { return workers_; }
  /// The single source's driver report (inject lag, reconfigs applied).
  const engine::OpenLoopSourceReport& driver() const { return driver_; }
  double wall_seconds() const { return wall_seconds_; }

  /// Latencies (or one phase's) merged over every sink instance.
  stats::LatencyHistogram Histogram() const;
  stats::LatencyHistogram PhaseHistogram(size_t phase) const;
  /// Sink instance `instance` (== worker id).
  const engine::LatencySink& Sink(uint32_t instance) const;

 private:
  OpenLoopCell() = default;

  // Declared before runtime_, so it is destroyed after it.
  std::unique_ptr<engine::Topology> topology_;
  std::unique_ptr<engine::ThreadedRuntime> runtime_;
  engine::NodeId spout_{};
  engine::NodeId sink_{};
  engine::LatencySink::Options sink_options_;
  uint32_t workers_ = 0;
  engine::OpenLoopSourceReport driver_;
  double wall_seconds_ = 0;
};

/// \brief "123us", or "12.3ms" from 10ms up.
std::string FormatUs(uint64_t us);

/// \brief Header of a latency table: `leading` coordinate columns, then
/// count, p50, p95, p99, p999, max and mean.
std::vector<std::string> LatencyColumns(std::vector<std::string> leading);

/// \brief Reports a cell's merged latency under `prefix`: eight
/// deterministic metrics (count, p50_us, p95_us, p99_us, p999_us, max_us,
/// mean_us, saturated), wall_seconds and max_inject_lag_us as host metrics,
/// and a LatencyColumns row in `table`. CHECK-fails unless every message
/// was recorded. Returns the merged histogram.
stats::LatencyHistogram ReportLatency(const OpenLoopCell& cell,
                                      const std::string& prefix,
                                      std::vector<std::string> leading,
                                      Report* report, Table* table);

}  // namespace bench
}  // namespace pkgstream

#endif  // PKGSTREAM_BENCH_OPEN_LOOP_CELL_H_
