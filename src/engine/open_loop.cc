// Copyright 2026 The pkgstream Authors.

#include "engine/open_loop.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/logging.h"
#include "engine/spsc_ring.h"

namespace pkgstream {
namespace engine {

LatencySink::LatencySink(Options options)
    : options_(std::move(options)),
      histogram_(options_.histogram_max_us, options_.histogram_sub_buckets) {
  if (options_.model == ServiceModel::kWallClock) {
    PKGSTREAM_CHECK(options_.clock != nullptr)
        << "kWallClock LatencySink needs the run clock";
  }
  if (options_.fault_plan != nullptr) {
    PKGSTREAM_CHECK(options_.model == ServiceModel::kVirtualService)
        << "fault plans fold into the virtual-service recursion only";
  }
  const auto& boundaries = options_.phase_boundaries_us;
  if (!boundaries.empty()) {
    for (size_t i = 1; i < boundaries.size(); ++i) {
      PKGSTREAM_CHECK(boundaries[i - 1] <= boundaries[i])
          << "phase boundaries must be ascending";
    }
    phase_hists_.reserve(boundaries.size() + 1);
    for (size_t p = 0; p <= boundaries.size(); ++p) {
      phase_hists_.emplace_back(options_.histogram_max_us,
                                options_.histogram_sub_buckets);
    }
  }
}

void LatencySink::Open(const OperatorContext& ctx) {
  if (options_.fault_plan == nullptr) return;
  PKGSTREAM_CHECK(ctx.parallelism == options_.fault_plan->workers())
      << "fault plan sized for " << options_.fault_plan->workers()
      << " workers, sink has " << ctx.parallelism << " instances";
  windows_ = options_.fault_plan->ServiceTimeline(ctx.instance);
}

size_t LatencySink::PhaseOf(uint64_t scheduled_us) const {
  const auto& boundaries = options_.phase_boundaries_us;
  size_t p = 0;
  while (p < boundaries.size() && scheduled_us >= boundaries[p]) ++p;
  return p;
}

const stats::LatencyHistogram& LatencySink::phase_histogram(size_t p) const {
  PKGSTREAM_CHECK(p < phase_hists_.size())
      << "phase " << p << " of " << phase_hists_.size();
  return phase_hists_[p];
}

void LatencySink::Process(const Message& msg, Emitter* out) {
  (void)out;
  const uint64_t scheduled = msg.ts;
  if (options_.model == ServiceModel::kVirtualService) {
    if (options_.service_us == 0 && windows_.empty()) {
      histogram_.Record(0);
      if (!phase_hists_.empty()) phase_hists_[PhaseOf(scheduled)].Record(0);
      return;
    }
    // Lindley recursion: service starts when the message has arrived (its
    // scheduled time), this worker is free, and the worker is not on a
    // stall vacation. Start times are nondecreasing (next_free_us_ only
    // grows), so a forward-only cursor folds the plan's non-overlapping
    // windows in one pass across the whole run.
    uint64_t start = std::max(scheduled, next_free_us_);
    uint64_t service = options_.service_us;
    while (window_pos_ < windows_.size()) {
      const FaultPlan::ServiceWindow& w = windows_[window_pos_];
      if (w.end_us <= start) {
        ++window_pos_;
        continue;
      }
      if (w.begin_us > start) break;
      if (w.stall) {
        // Vacation: service cannot begin before the window closes.
        start = w.end_us;
        ++window_pos_;
        continue;
      }
      service = std::max<uint64_t>(
          1, static_cast<uint64_t>(
                 std::llround(static_cast<double>(service) * w.factor)));
      break;
    }
    next_free_us_ = start + service;
    const uint64_t latency = next_free_us_ - scheduled;
    histogram_.Record(latency);
    if (!phase_hists_.empty()) {
      phase_hists_[PhaseOf(scheduled)].Record(latency);
    }
    return;
  }
  if (options_.service_spin_us > 0) {
    const uint64_t until = options_.clock->NowMicros() + options_.service_spin_us;
    while (options_.clock->NowMicros() < until) Backoff::CpuRelax();
  }
  const uint64_t now = options_.clock->NowMicros();
  const uint64_t latency = now > scheduled ? now - scheduled : 0;
  histogram_.Record(latency);
  if (!phase_hists_.empty()) phase_hists_[PhaseOf(scheduled)].Record(latency);
}

namespace {

/// The one merge loop behind MergedHistogram and MergedPhaseHistogram:
/// merges `pick(instance)` over every LatencySink instance of `sink`.
template <typename Pick>
stats::LatencyHistogram MergeInstances(ThreadedRuntime* rt, NodeId sink,
                                       uint32_t parallelism,
                                       const LatencySink::Options& options,
                                       Pick pick) {
  stats::LatencyHistogram merged(options.histogram_max_us,
                                 options.histogram_sub_buckets);
  for (uint32_t i = 0; i < parallelism; ++i) {
    auto* op = dynamic_cast<LatencySink*>(rt->GetOperator(sink, i));
    PKGSTREAM_CHECK(op != nullptr) << "node is not a LatencySink";
    merged.Merge(pick(*op));
  }
  return merged;
}

}  // namespace

stats::LatencyHistogram LatencySink::MergedHistogram(ThreadedRuntime* rt,
                                                     NodeId sink,
                                                     uint32_t parallelism,
                                                     const Options& options) {
  return MergeInstances(
      rt, sink, parallelism, options,
      [](const LatencySink& op) -> const stats::LatencyHistogram& {
        return op.histogram();
      });
}

stats::LatencyHistogram LatencySink::MergedPhaseHistogram(
    ThreadedRuntime* rt, NodeId sink, uint32_t parallelism,
    const Options& options, size_t phase) {
  return MergeInstances(
      rt, sink, parallelism, options,
      [phase](const LatencySink& op) -> const stats::LatencyHistogram& {
        return op.phase_histogram(phase);
      });
}

OperatorFactory LatencySink::MakeFactory(Options options) {
  return [options](uint32_t) { return std::make_unique<LatencySink>(options); };
}

OpenLoopDriver::OpenLoopDriver(ThreadedRuntime* rt, NodeId spout,
                               const OpenLoopClock* clock,
                               OpenLoopOptions options)
    : rt_(rt), spout_(spout), clock_(clock), options_(options) {
  PKGSTREAM_CHECK(rt != nullptr && clock != nullptr);
  PKGSTREAM_CHECK(options_.max_batch > 0);
}

void OpenLoopDriver::WaitUntil(uint64_t target_us) const {
  for (;;) {
    const uint64_t now = clock_->NowMicros();
    if (now >= target_us) return;
    const uint64_t wait = target_us - now;
    if (wait > 2000) {
      // Sleep most of it, leave ~1ms of slack for wakeup jitter.
      std::this_thread::sleep_for(std::chrono::microseconds(wait - 1000));
    } else if (wait > 200) {
      std::this_thread::yield();
    } else {
      Backoff::CpuRelax();
    }
  }
}

OpenLoopSourceReport OpenLoopDriver::RunSource(const Source& source) {
  PKGSTREAM_CHECK(source.schedule != nullptr && source.keys != nullptr);
  OpenLoopSourceReport report;
  const size_t max_batch = options_.max_batch;
  std::vector<uint64_t> when(max_batch);
  std::vector<Key> keys(max_batch);
  std::vector<Message> msgs(max_batch);

  const FaultPlan* plan = source.faults;
  size_t next_event = 0;  // into plan->routing_events()

  uint64_t produced = 0;
  size_t len = 0;  // filled portion of when/keys
  size_t pos = 0;  // next unsent entry
  while (produced < source.messages || pos < len) {
    if (rt_->aborted()) {
      // Run torn down under us (e.g. a wedged consumer was aborted):
      // exit cleanly instead of pushing into rings nobody drains.
      report.aborted = true;
      break;
    }
    if (pos == len) {
      len = static_cast<size_t>(
          std::min<uint64_t>(max_batch, source.messages - produced));
      source.schedule->NextBatchMicros(when.data(), len);
      source.keys->NextBatch(keys.data(), len);
      produced += len;
      pos = 0;
    }
    // Apply every crash/rejoin due at or before the next message's
    // *scheduled* arrival — the reconfiguration point in the message
    // sequence is a pure function of the schedule, so replays (paced or
    // not, any host speed) reconfigure at the identical message index.
    if (plan != nullptr) {
      const auto& events = plan->routing_events();
      while (next_event < events.size() &&
             events[next_event].at_us <= when[pos]) {
        PKGSTREAM_CHECK_OK(rt_->ReconfigureWorkers(
            source.fault_target, plan->AliveAfterEvent(next_event)));
        ++report.reconfigs_applied;
        ++next_event;
      }
    }
    if (options_.pace) {
      const uint64_t before = clock_->NowMicros();
      if (before < when[pos]) {
        WaitUntil(when[pos]);
      } else {
        ++report.late_batches;
      }
    }
    // Everything already due goes out in one batch; when not pacing, the
    // whole buffered chunk is "due".
    size_t count = 1;
    if (options_.pace) {
      const uint64_t now = clock_->NowMicros();
      while (pos + count < len && when[pos + count] <= now) ++count;
    } else {
      count = len - pos;
    }
    // Split the batch at the next routing event: no message scheduled at
    // or after the event may route under the old worker set. The first
    // message is always before the event (everything due was applied
    // above), so count stays >= 1.
    if (plan != nullptr && next_event < plan->routing_events().size()) {
      const uint64_t limit = plan->routing_events()[next_event].at_us;
      size_t c = 1;
      while (c < count && when[pos + c] < limit) ++c;
      count = c;
    }
    for (size_t i = 0; i < count; ++i) {
      Message& m = msgs[i];
      m.key = keys[pos + i];
      m.ts = when[pos + i];  // latency is measured from the *scheduled* time
    }
    rt_->InjectBatch(spout_, source.source, msgs.data(), count);
    const uint64_t after = clock_->NowMicros();
    // The first message of the batch has the earliest schedule, so its lag
    // bounds the batch.
    if (after > when[pos]) {
      report.max_lag_us = std::max(report.max_lag_us, after - when[pos]);
    }
    // Per-message lag against the same completion stamp: a batch held up
    // by backpressure charges every message it covered, so sustained
    // delay shows up in the quantiles, not just the max.
    for (size_t i = 0; i < count; ++i) {
      const uint64_t scheduled = when[pos + i];
      report.lag_histogram.Record(after > scheduled ? after - scheduled : 0);
    }
    report.last_scheduled_us = when[pos + count - 1];
    report.injected += count;
    pos += count;
  }
  return report;
}

std::vector<OpenLoopSourceReport> OpenLoopDriver::Run(
    const std::vector<Source>& sources) {
  std::vector<OpenLoopSourceReport> reports(sources.size());
  std::vector<std::thread> threads;
  threads.reserve(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    threads.emplace_back(
        [this, &sources, &reports, i] { reports[i] = RunSource(sources[i]); });
  }
  for (auto& t : threads) t.join();
  return reports;
}

}  // namespace engine
}  // namespace pkgstream
