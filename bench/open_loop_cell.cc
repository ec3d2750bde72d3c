// Copyright 2026 The pkgstream Authors.

#include "bench/open_loop_cell.h"

#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "workload/arrival_schedule.h"
#include "workload/trace.h"

namespace pkgstream {
namespace bench {
namespace {

/// Replays a pre-generated arrival-time vector, so every technique is
/// offered the byte-identical schedule the checksum covers.
class VectorSchedule final : public workload::ArrivalSchedule {
 public:
  explicit VectorSchedule(const std::vector<uint64_t>* times)
      : times_(times) {}

  uint64_t NextMicros() override {
    PKGSTREAM_CHECK(pos_ < times_->size());
    return (*times_)[pos_++];
  }

  std::string Name() const override { return "replay"; }

 private:
  const std::vector<uint64_t>* times_;
  size_t pos_ = 0;
};

}  // namespace

OpenLoopInput MakeOpenLoopInput(
    uint64_t load, uint64_t messages,
    const std::shared_ptr<const workload::StaticDistribution>& dist,
    uint64_t seed, uint64_t salt, const std::string& prefix, Report* report) {
  OpenLoopInput input;
  input.times.resize(messages);
  input.keys.resize(messages);
  workload::PoissonSchedule schedule(static_cast<double>(load), seed ^ salt);
  schedule.NextBatchMicros(input.times.data(), messages);
  workload::IidKeyStream key_stream(dist, seed * 31 + salt);
  key_stream.NextBatch(input.keys.data(), messages);
  uint64_t sched_sum = 0, key_sum = 0;
  for (uint64_t t : input.times) sched_sum += t;
  for (Key k : input.keys) key_sum += k;
  report->AddMetric(prefix + "sched_checksum",
                    static_cast<double>(sched_sum & 0xffffffffULL));
  report->AddMetric(prefix + "key_checksum",
                    static_cast<double>(key_sum & 0xffffffffULL));
  return input;
}

uint64_t FifthOfCapacity(uint32_t workers, uint64_t service_us) {
  PKGSTREAM_CHECK(service_us > 0) << "--service_us must be > 0";
  const uint64_t load = static_cast<uint64_t>(workers) *
                        (1000000 / service_us) / 5;
  PKGSTREAM_CHECK(load > 0)
      << "--service_us=" << service_us << " leaves W=" << workers
      << " no offered load: 20% of W * (1000000 / service_us) msgs/sec "
         "rounds to 0";
  return load;
}

OpenLoopCell OpenLoopCell::Run(const OpenLoopCellSpec& spec,
                               const OpenLoopInput& input) {
  const uint64_t messages = input.times.size();
  OpenLoopCell cell;
  cell.workers_ = spec.routing.workers;
  PKGSTREAM_CHECK(cell.workers_ > 0 && input.keys.size() == messages);
  cell.sink_options_.model = engine::LatencySink::ServiceModel::kVirtualService;
  cell.sink_options_.service_us = spec.service_us;
  cell.sink_options_.fault_plan = spec.faults;
  cell.sink_options_.phase_boundaries_us = spec.phase_boundaries_us;

  cell.topology_ = std::make_unique<engine::Topology>();
  cell.spout_ = cell.topology_->AddSpout("src", /*parallelism=*/1);
  cell.sink_ = cell.topology_->AddOperator(
      "sink", engine::LatencySink::MakeFactory(cell.sink_options_),
      cell.workers_);
  PKGSTREAM_CHECK_OK(
      cell.topology_->Connect(cell.spout_, cell.sink_, spec.routing));
  auto rt = engine::ThreadedRuntime::Create(cell.topology_.get(), spec.runtime);
  PKGSTREAM_CHECK_OK(rt.status());
  cell.runtime_ = std::move(*rt);

  engine::OpenLoopClock clock;
  engine::OpenLoopOptions driver_options;
  driver_options.pace = false;
  engine::OpenLoopDriver driver(cell.runtime_.get(), cell.spout_, &clock,
                                driver_options);
  VectorSchedule schedule(&input.times);
  workload::VectorKeyStream key_stream(input.keys, "replay");
  engine::OpenLoopDriver::Source source;
  source.source = 0;
  source.schedule = &schedule;
  source.keys = &key_stream;
  source.messages = messages;
  source.faults = spec.faults;
  source.fault_target = cell.sink_;
  cell.driver_ = driver.Run({source})[0];
  cell.runtime_->Finish();
  cell.wall_seconds_ = static_cast<double>(clock.NowMicros()) / 1e6;

  uint64_t processed = 0;
  for (uint64_t n : cell.runtime_->Processed(cell.sink_)) processed += n;
  PKGSTREAM_CHECK(processed == messages)
      << "message loss: injected " << messages << ", processed " << processed;
  return cell;
}

stats::LatencyHistogram OpenLoopCell::Histogram() const {
  return engine::LatencySink::MergedHistogram(runtime_.get(), sink_, workers_,
                                              sink_options_);
}

stats::LatencyHistogram OpenLoopCell::PhaseHistogram(size_t phase) const {
  return engine::LatencySink::MergedPhaseHistogram(
      runtime_.get(), sink_, workers_, sink_options_, phase);
}

const engine::LatencySink& OpenLoopCell::Sink(uint32_t instance) const {
  auto* op = dynamic_cast<engine::LatencySink*>(
      runtime_->GetOperator(sink_, instance));
  PKGSTREAM_CHECK(op != nullptr);
  return *op;
}

std::string FormatUs(uint64_t us) {
  char buf[32];
  if (us >= 10000) {
    std::snprintf(buf, sizeof(buf), "%.1fms", static_cast<double>(us) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluus",
                  static_cast<unsigned long long>(us));
  }
  return buf;
}

std::vector<std::string> LatencyColumns(std::vector<std::string> leading) {
  leading.insert(leading.end(),
                 {"count", "p50", "p95", "p99", "p999", "max", "mean us"});
  return leading;
}

stats::LatencyHistogram ReportLatency(const OpenLoopCell& cell,
                                      const std::string& prefix,
                                      std::vector<std::string> leading,
                                      Report* report, Table* table) {
  stats::LatencyHistogram h = cell.Histogram();
  PKGSTREAM_CHECK(h.count() == cell.driver().injected)
      << "message loss: injected " << cell.driver().injected
      << ", recorded " << h.count();
  report->AddMetric(prefix + "count", static_cast<double>(h.count()));
  report->AddMetric(prefix + "p50_us", static_cast<double>(h.P50()));
  report->AddMetric(prefix + "p95_us", static_cast<double>(h.P95()));
  report->AddMetric(prefix + "p99_us", static_cast<double>(h.P99()));
  report->AddMetric(prefix + "p999_us", static_cast<double>(h.P999()));
  report->AddMetric(prefix + "max_us", static_cast<double>(h.max()));
  report->AddMetric(prefix + "mean_us", h.mean());
  report->AddMetric(prefix + "saturated", static_cast<double>(h.saturated()));
  report->AddHostMetric(prefix + "wall_seconds", cell.wall_seconds());
  report->AddHostMetric(prefix + "max_inject_lag_us",
                        static_cast<double>(cell.driver().max_lag_us));
  leading.insert(leading.end(),
                 {std::to_string(h.count()), FormatUs(h.P50()),
                  FormatUs(h.P95()), FormatUs(h.P99()), FormatUs(h.P999()),
                  FormatUs(h.max()),
                  std::to_string(static_cast<uint64_t>(h.mean()))});
  table->AddRow(std::move(leading));
  return h;
}

}  // namespace bench
}  // namespace pkgstream
