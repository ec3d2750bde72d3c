// Copyright 2026 The pkgstream Authors.
// pkgbench: the repository benchmark. It runs one workload through the
// sharded ThreadedRuntime using public calls only, checks the outputs, and
// prints one JSON result line:
//
//   pkgbench --workload wordcount --seed 1 --seconds 10 --trace 0
//
// Every key is generated from --seed before the clock starts, so the engine
// only ever receives pre-generated inputs; the paced workload's arrival
// schedule is a PoissonSchedule seeded from --seed, which OpenLoopDriver
// replays identically in every round. The key generator and the driver's
// waits are the load generator, not layers under test.
//
// A run is kRounds rounds of --seconds / kRounds each; every round builds a
// fresh runtime, injects, finishes and is checked by the oracles. --trace 0
// reports the end-to-end metrics (see benchmark/README.md) as medians over
// the rounds. --trace 1 alternates kRounds untraced and kRounds traced
// rounds, each --seconds / (2 kRounds) long: the traced
// ones record spans around every call into a layer, then each layer is
// probed on the same inputs, the per-layer metrics are reported, and the
// spans are written as a Chrome trace to --trace_out. End-to-end numbers
// never come from a traced round.
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
// line before it is the host fingerprint, whose "valid" is false when the
// host disturbed too many rounds (see kMaxStealFrac). Exit code 0 = every
// oracle held, 1 = an output was wrong, 2 = usage error.

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "apps/wordcount.h"
#include "common/flags.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/simd.h"
#include "engine/cpu_affinity.h"
#include "engine/logical_runtime.h"
#include "engine/open_loop.h"
#include "engine/spsc_ring.h"
#include "engine/threaded_runtime.h"
#include "partition/factory.h"
#include "stats/latency_histogram.h"
#include "trace.h"
#include "workload/arrival_schedule.h"
#include "workload/dataset.h"
#include "workload/static_distribution.h"
#include "workload/zipf.h"

namespace pkgstream {
namespace pkgbench {
namespace {

using engine::Message;
using engine::NodeId;
using partition::Technique;

/// Messages per closed-loop InjectBatch call, and the paced batch cap.
constexpr size_t kBatch = 256;
/// Shard threads per runtime. With at most two injectors a run uses at most
/// four threads, the core count the plan assumes.
constexpr size_t kShards = 2;
constexpr uint32_t kPlannedCores = 4;
/// The partitioners' hash seed is part of the system's configuration, not of
/// its input, so it stays fixed across --seed values.
constexpr uint64_t kRouteSeed = 42;
constexpr double kWpScale = 0.01;
constexpr double kPacedRate = 20000.0;
constexpr uint64_t kPacedSpinUs = 10;
/// A round is disturbed by the host when the hypervisor ran others on this
/// guest's CPUs for more than kMaxStealFrac of the round's CPU time (normal
/// rounds saw 0-2%; in minutes when it rose, a word count ran at half
/// speed), or, on paced-20k, when the generator fell further behind its
/// schedule than kMaxLagP99Us at p99, so the round did not offer the load it
/// claims. A disturbed round's messages stay counted and checked, but it is
/// rerun while the run is younger than kRerunSeconds (which keeps a run well
/// inside 180 s); after that it is kept, and a run whose kept rounds are
/// disturbed as often as not is marked invalid.
constexpr double kMaxStealFrac = 0.03;
constexpr uint64_t kMaxLagP99Us = 1000;
constexpr double kRerunSeconds = 80;
constexpr uint64_t kInboxSampleEvery = 64;
/// Each run is kRounds independent jobs (fresh runtime, same inputs) and
/// reports medians over them, which keeps a slow spell of the host (its
/// speed drifts by 20-30% over seconds to minutes) from moving the result.
constexpr int kRounds = 8;
/// Set-up cycles are timed for kSetupSeconds after each round (at least
/// kMinSetupCycles, after one untimed warm-up cycle). A slow spell of the
/// host makes several cycles in a row 2-3x slower; cycles spread over the
/// whole run keep such spells from setting the median.
constexpr double kSetupSeconds = 0.1;
constexpr int kMinSetupCycles = 4;
constexpr double kProbeSeconds = 0.2;
constexpr double kLogicalSeconds = 1.0;

enum class Shape { kWordCount, kPaced };

struct Workload {
  const char* name;
  Shape shape;
  Technique technique;
  uint32_t sources;
  uint32_t workers;
};

// Why these three: see benchmark/README.md. wordcount stresses the inject
// path (emit buffer, Message copies, rings); wordcount-kg bypasses the load
// estimator (hash-only routing) and is the paper's KG reference; paced-20k
// is an open loop where the engine's batching, not queueing, sets latency.
// A D-Choices fan-out to W=1000 is left out: its branch-bound routing loop
// sped up by up to 40% in the host's fast phases, and ten-run spreads
// reached 36-42%, over the largest bound the benchmark format allows.
const Workload kWorkloads[] = {
    {"wordcount", Shape::kWordCount, Technique::kPkgLocal, 2, 8},
    {"wordcount-kg", Shape::kWordCount, Technique::kHashing, 2, 8},
    {"paced-20k", Shape::kPaced, Technique::kPkgLocal, 1, 8},
};

// ---------------------------------------------------------------------------
// Host measurements
// ---------------------------------------------------------------------------

uint64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// A "VmRSS"/"VmHWM" line of /proc/self/status in kB (0 when unavailable).
uint64_t StatusKb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtoull(line.c_str() + field.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

/// Keeps the calling thread, and the threads it starts, off the CPUs the
/// pinned shards take (the first kShards allowed ones) while in scope, so
/// no injector or paced driver thread shares a core with a shard. Left to
/// the scheduler, the paced driver now and then ran beside a shard and fell
/// milliseconds behind its schedule (generator lag p99 of 2-9 ms in some
/// rounds, against 10-30 us otherwise). A no-op where affinity is not
/// available or no CPU is left over.
class AvoidShardCpus {
 public:
  AvoidShardCpus() {
#if defined(__linux__)
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t rest = saved_;
    size_t skipped = 0;
    for (int c = 0; c < CPU_SETSIZE && skipped < kShards; ++c) {
      if (CPU_ISSET(c, &rest)) {
        CPU_CLR(c, &rest);
        ++skipped;
      }
    }
    active_ = CPU_COUNT(&rest) > 0 &&
              sched_setaffinity(0, sizeof(rest), &rest) == 0;
#endif
  }
  ~AvoidShardCpus() {
#if defined(__linux__)
    if (active_) sched_setaffinity(0, sizeof(saved_), &saved_);
#endif
  }
  AvoidShardCpus(const AvoidShardCpus&) = delete;
  AvoidShardCpus& operator=(const AvoidShardCpus&) = delete;

 private:
#if defined(__linux__)
  cpu_set_t saved_;
#endif
  bool active_ = false;
};

/// Time the hypervisor gave this guest's CPUs to others ("steal", the
/// eighth value of /proc/stat's "cpu" line), summed over all CPUs, in
/// seconds; 0 where unavailable.
double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string label;
  uint64_t values[8] = {};
  in >> label;
  for (uint64_t& v : values) in >> v;
  if (!in || label != "cpu") return 0;
  return static_cast<double>(values[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Resets VmHWM to the current RSS; returns false where unsupported.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.substr(0, brand.find('\0'));
    const size_t first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

// ---------------------------------------------------------------------------
// Small numeric helpers
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

uint64_t AbsDiff(uint64_t a, uint64_t b) { return a > b ? a - b : b - a; }

std::string CompactJson(const JsonValue& v) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return v.bool_value() ? "true" : "false";
    case JsonValue::Type::kNumber:
      return FormatJsonNumber(v.number());
    case JsonValue::Type::kString:
      return JsonEscape(v.string_value());
    case JsonValue::Type::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < v.size(); ++i) {
        out += (i ? ", " : "") + CompactJson(v.at(i));
      }
      return out + "]";
    }
    case JsonValue::Type::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [key, value] : v.members()) {
        out += (first ? "" : ", ") + JsonEscape(key) + ": " +
               CompactJson(value);
        first = false;
      }
      return out + "}";
    }
  }
  return "null";
}

// ---------------------------------------------------------------------------
// Inputs and topologies
// ---------------------------------------------------------------------------

struct Inputs {
  /// Per source; closed loops inject them cyclically (length is a multiple
  /// of kBatch), the paced loop once.
  std::vector<std::vector<Key>> keys;
  /// Paced only: the seed of the Poisson arrival schedule. Every round
  /// replays the same schedule from a fresh PoissonSchedule.
  uint64_t schedule_seed = 0;
  uint64_t key_space = 0;  ///< keys are in [0, key_space)
};

Inputs MakeInputs(const Workload& w, uint64_t seed, double seconds,
                  bool smoke) {
  Inputs in;
  std::shared_ptr<const workload::StaticDistribution> dist;
  size_t per_source = 0;
  if (w.shape == Shape::kWordCount) {
    // The WP stand-in (p1 = 9.32%) at 1% of its key space, K = 29k. At the
    // full K = 2.9M the counters' ~50 MB of state is DRAM-bound and its speed
    // tracked other tenants' memory traffic (35% spread over ten seeds); at
    // 29k keys the state stays in cache and the run measures the engine.
    auto spec = workload::FindDataset("WP");
    PKGSTREAM_CHECK_OK(spec.status());
    auto made = workload::MakeDistribution(*spec, kWpScale, seed);
    PKGSTREAM_CHECK_OK(made.status());
    dist = *made;
    per_source = smoke ? (size_t{1} << 16) : (size_t{1} << 22);
  } else {
    dist = std::make_shared<const workload::StaticDistribution>(
        workload::ZipfWeights(1000, 1.5), "zipf(1.5,K=1000)");
    per_source = static_cast<size_t>(
        std::max(1.0, std::round(seconds * kPacedRate)));
    in.schedule_seed = HashCombine(seed, 0x5C);
  }
  in.key_space = dist->K();
  in.keys.resize(w.sources);
  for (uint32_t s = 0; s < w.sources; ++s) {
    workload::IidKeyStream stream(dist, HashCombine(seed, s + 1));
    in.keys[s].resize(per_source);
    stream.NextBatch(in.keys[s].data(), per_source);
  }
  return in;
}

/// One instance of a workload's topology. Heap-allocated: the paced sinks
/// keep a pointer to `clock`, and the runtime to `topology`.
struct Job {
  engine::Topology topology;
  NodeId spout;
  NodeId stage;       ///< the operator the spout routes to
  NodeId aggregator;  ///< wordcount only
  apps::CounterMode mode = apps::CounterMode::kPartialCounts;
  engine::LatencySink::Options sink;
  engine::OpenLoopClock clock;
};

std::unique_ptr<Job> BuildJob(const Workload& w) {
  auto job = std::make_unique<Job>();
  if (w.shape == Shape::kWordCount) {
    apps::WordCountTopology wc = apps::MakeWordCountTopology(
        w.technique, w.sources, w.workers, /*tick_period=*/0, /*topk=*/10,
        kRouteSeed);
    job->topology = std::move(wc.topology);
    job->spout = wc.spout;
    job->stage = wc.counter;
    job->aggregator = wc.aggregator;
    job->mode = wc.mode;
    return job;
  }
  job->spout = job->topology.AddSpout("src", w.sources);
  job->sink.model = engine::LatencySink::ServiceModel::kWallClock;
  job->sink.service_spin_us = kPacedSpinUs;
  job->sink.clock = &job->clock;
  // 1024 cells per octave: quantiles resolve to 0.1%, not 3%.
  job->sink.histogram_max_us = 1ULL << 24;
  job->sink.histogram_sub_buckets = 1024;
  job->stage = job->topology.AddOperator(
      "sink", engine::LatencySink::MakeFactory(job->sink), w.workers);
  partition::PartitionerConfig config;
  config.technique = w.technique;
  config.seed = kRouteSeed;
  PKGSTREAM_CHECK_OK(job->topology.Connect(job->spout, job->stage, config));
  return job;
}

const partition::PartitionerConfig& SpoutEdge(const Job& job) {
  return job.topology.edges()[job.topology.OutEdges(job.spout).at(0)]
      .partitioner;
}

/// Shards are pinned so that the injectors and the paced driver can be kept
/// off their CPUs (see AvoidShardCpus).
engine::ThreadedRuntimeOptions RuntimeOptions() {
  engine::ThreadedRuntimeOptions options;
  options.shards = kShards;
  options.pin_shards = true;
  return options;
}

// ---------------------------------------------------------------------------
// One measured run
// ---------------------------------------------------------------------------

/// A histogram with 1024 cells per octave: quantiles resolve to 0.1%.
stats::LatencyHistogram FineHistogram() {
  return stats::LatencyHistogram(1ULL << 34, 1024);
}

struct InjectorResult {
  uint64_t injected = 0;
  uint64_t batches = 0;
  uint64_t cpu_ns = 0;    ///< this thread's CPU time
  uint64_t busy_ns = 0;   ///< start of the round to the last inject
  uint64_t trace_ns = 0;  ///< traced: time spent recording
  /// InjectBatch calls (closed loops only: OpenLoopDriver makes the paced
  /// calls, where the benchmark cannot time them).
  stats::LatencyHistogram call_ns = FineHistogram();
  /// Closed loop: the generator's own time between two calls, in ns. Open
  /// loop: OpenLoopDriver's lag_histogram, each message's inject completion
  /// minus its arrival, in us.
  stats::LatencyHistogram lag = FineHistogram();
  stats::LatencyHistogram inbox = FineHistogram();  ///< traced: depths
};

struct RunResult {
  // Destroyed in reverse order: the runtime before the topology it runs.
  std::unique_ptr<Job> job;
  std::unique_ptr<engine::ThreadedRuntime> rt;
  std::vector<InjectorResult> injectors;
  uint64_t injected = 0;
  double wall_s = 0;  ///< first inject to the return of Finish
  double cpu_s = 0;   ///< process CPU over the same window
  /// Steal over the same window, as a share of all CPUs' time.
  double steal_frac = 0;
  double finish_ms = 0;
  double mem_rise_mb = 0;
  bool mem_reset_ok = false;
};

struct InjectContext {
  const Inputs* in;
  Job* job;
  engine::ThreadedRuntime* rt;
  uint64_t start_ns;
  uint64_t deadline_ns;
  Tracer* tracer;
  Tracer::SpanId run_span;
};

void SampleInbox(const InjectContext& ctx, uint32_t lane, uint64_t batch,
                 InjectorResult* r) {
  const uint64_t t0 = NowNs();
  const size_t depth = ctx.rt->ApproxInboxDepth(ctx.job->stage);
  ctx.tracer->Record(lane, "inbox_sample", t0, NowNs(), ctx.run_span, batch,
                     static_cast<int64_t>(depth));
  r->inbox.Record(depth);
}

/// Closed loop: InjectBatch(kBatch) flat out until the deadline.
void InjectClosed(const InjectContext& ctx, uint32_t s, InjectorResult* r) {
  const std::vector<Key>& keys = ctx.in->keys[s];
  const uint32_t lane = s + 1;
  Message msgs[kBatch];
  size_t pos = 0;
  uint64_t prev_end = ctx.start_ns;
  for (;;) {
    for (size_t j = 0; j < kBatch; ++j) msgs[j].key = keys[pos + j];
    pos = pos + kBatch == keys.size() ? 0 : pos + kBatch;
    const uint64_t t0 = NowNs();
    ctx.rt->InjectBatch(ctx.job->spout, s, msgs, kBatch);
    const uint64_t t1 = NowNs();
    r->call_ns.Record(t1 - t0);
    r->lag.Record(t0 - prev_end);
    prev_end = t1;
    if (ctx.tracer != nullptr) {
      ctx.tracer->Record(lane, "inject_batch", t0, t1, ctx.run_span,
                         r->batches);
      if (r->batches % kInboxSampleEvery == 0) {
        SampleInbox(ctx, lane, r->batches, r);
      }
      r->trace_ns += NowNs() - t1;
    }
    r->injected += kBatch;
    ++r->batches;
    if (t1 >= ctx.deadline_ns) break;
  }
}

/// The paced run's key source. OpenLoopDriver calls NextBatch on its own
/// thread whenever its buffer of up to kBatch messages is empty, so every
/// message handed out before the call has been injected. That makes the
/// call the benchmark's view of the driver thread: it reads the thread's CPU
/// clock and, in a traced round, samples the inbox depth.
class PacedKeys final : public workload::KeyStream {
 public:
  PacedKeys(const InjectContext* ctx, InjectorResult* r)
      : keys_(ctx->in->keys[0]), ctx_(ctx), r_(r) {}

  Key Next() override { return keys_[pos_++]; }

  void NextBatch(Key* out, size_t n) override {
    if (pos_ > 0) {
      cpu_ns_ = CpuNs(CLOCK_THREAD_CPUTIME_ID);
      cpu_msgs_ = pos_;
      if (ctx_->tracer != nullptr) {
        const uint64_t t0 = NowNs();
        SampleInbox(*ctx_, 1, refills_, r_);
        r_->trace_ns += NowNs() - t0;
      }
    }
    std::copy_n(keys_.data() + pos_, n, out);
    pos_ += n;
    ++refills_;
  }

  uint64_t KeySpace() const override { return ctx_->in->key_space; }
  std::string Name() const override { return "pkgbench-paced"; }
  size_t size() const { return keys_.size(); }

  /// The driver thread's CPU time for `messages`, extrapolated from the last
  /// refill (at most kBatch messages before the end).
  uint64_t DriverCpuNs(uint64_t messages) const {
    if (cpu_msgs_ == 0) return 0;
    return static_cast<uint64_t>(static_cast<double>(cpu_ns_) *
                                 static_cast<double>(messages) /
                                 static_cast<double>(cpu_msgs_));
  }

 private:
  const std::vector<Key>& keys_;
  const InjectContext* ctx_;
  InjectorResult* r_;
  size_t pos_ = 0;
  uint64_t refills_ = 0;
  uint64_t cpu_ns_ = 0;    ///< the driver thread's CPU clock at a refill
  uint64_t cpu_msgs_ = 0;  ///< messages injected by then
};

/// Open loop: OpenLoopDriver (pace on, batches of at most kBatch) injects
/// every message at its scheduled arrival and stamps it with that arrival,
/// so latency counts any wait to be injected.
void DrivePaced(const InjectContext& ctx, InjectorResult* r) {
  PacedKeys keys(&ctx, r);
  workload::PoissonSchedule schedule(kPacedRate, ctx.in->schedule_seed);
  engine::OpenLoopOptions options;
  options.pace = true;
  options.max_batch = kBatch;
  engine::OpenLoopDriver driver(ctx.rt, ctx.job->spout, &ctx.job->clock,
                                options);
  engine::OpenLoopDriver::Source source;
  source.schedule = &schedule;
  source.keys = &keys;
  source.messages = keys.size();
  ctx.job->clock = engine::OpenLoopClock();  // schedule time 0 is now
  const engine::OpenLoopSourceReport report = driver.Run({source}).at(0);
  r->injected = report.injected;
  r->lag = report.lag_histogram;
  r->cpu_ns = keys.DriverCpuNs(report.injected);
}

RunResult RunOnce(const Workload& w, const Inputs& in, double seconds,
                  Tracer* tracer) {
  RunResult run;
  // The injectors' histograms are the benchmark's memory, not the engine's:
  // they exist before the memory baseline.
  run.injectors.resize(w.sources);
  run.mem_reset_ok = ResetPeakRss();
  const uint64_t rss0_kb = StatusKb("VmRSS");

  const Tracer::SpanId run_span =
      tracer ? tracer->Open(0, "run") : Tracer::kNoSpan;
  const Tracer::SpanId create_span =
      tracer ? tracer->Open(0, "runtime.create", run_span) : Tracer::kNoSpan;
  run.job = BuildJob(w);
  auto created = engine::ThreadedRuntime::Create(&run.job->topology,
                                                 RuntimeOptions());
  PKGSTREAM_CHECK_OK(created.status());
  run.rt = std::move(*created);
  if (tracer) tracer->Close(create_span);

  InjectContext ctx{&in, run.job.get(), run.rt.get(), 0, 0, tracer, run_span};
  // After Create, so the shards have taken their own masks; the injector
  // threads and the paced driver's thread inherit this one.
  std::optional<AvoidShardCpus> off_shards;
  off_shards.emplace();
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (uint32_t s = 0; w.shape != Shape::kPaced && s < w.sources; ++s) {
    threads.emplace_back([&, s] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      InjectorResult* r = &run.injectors[s];
      const Tracer::SpanId span =
          tracer ? tracer->Open(s + 1, "injector", run_span) : Tracer::kNoSpan;
      InjectClosed(ctx, s, r);
      if (tracer) tracer->Close(span);
      r->busy_ns = NowNs() - ctx.start_ns;
      r->cpu_ns = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    });
  }
  const uint64_t cpu0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  const double steal0 = StealSeconds();
  ctx.start_ns = NowNs();
  ctx.deadline_ns =
      ctx.start_ns + static_cast<uint64_t>(seconds * 1e9);
  if (w.shape == Shape::kPaced) {
    const Tracer::SpanId span =
        tracer ? tracer->Open(0, "driver", run_span) : Tracer::kNoSpan;
    DrivePaced(ctx, &run.injectors[0]);
    if (tracer) tracer->Close(span);
    run.injectors[0].busy_ns = NowNs() - ctx.start_ns;
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  off_shards.reset();

  const uint64_t finish0 = NowNs();
  const Tracer::SpanId finish_span =
      tracer ? tracer->Open(0, "runtime.finish", run_span) : Tracer::kNoSpan;
  run.rt->Finish();
  if (tracer) tracer->Close(finish_span);
  const uint64_t end = NowNs();
  const uint64_t cpu1 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  const double steal1 = StealSeconds();
  if (tracer) tracer->Close(run_span);

  const uint64_t hwm_kb = StatusKb("VmHWM");
  run.mem_rise_mb =
      static_cast<double>(hwm_kb > rss0_kb ? hwm_kb - rss0_kb : 0) / 1024.0;
  for (const InjectorResult& r : run.injectors) run.injected += r.injected;
  run.wall_s = static_cast<double>(end - ctx.start_ns) / 1e9;
  run.cpu_s = static_cast<double>(cpu1 - cpu0) / 1e9;
  run.steal_frac = (steal1 - steal0) /
                   (run.wall_s * engine::CpuAffinity::AvailableCpus());
  run.finish_ms = static_cast<double>(end - finish0) / 1e6;
  return run;
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

struct OracleResult {
  uint64_t failed = 0;  ///< messages lost or miscounted (max over oracles)
  std::vector<std::string> notes;
  double route_ns_per_msg = 0;  ///< the replay doubles as the RouteBatch probe
  std::vector<Key> worker0_keys;  ///< sub-stream for the Process probe
  double load_imbalance = 0;
  uint64_t state_entries = 0;
  stats::LatencyHistogram latency{1ULL << 24, 1024};  ///< paced sinks, merged

  void Fail(uint64_t messages, const std::string& what) {
    failed = std::max(failed, std::max<uint64_t>(messages, 1));
    notes.push_back(what);
  }
};

/// Calls fn(chunk, len) over the first `n` messages a source injected: its
/// key buffer, cyclically, in kBatch chunks.
template <typename Fn>
void ForEachInjectedChunk(const std::vector<Key>& keys, uint64_t n, Fn fn) {
  size_t pos = 0;
  for (uint64_t done = 0; done < n;) {
    const size_t len = static_cast<size_t>(
        std::min<uint64_t>({kBatch, n - done, keys.size() - pos}));
    fn(keys.data() + pos, len);
    done += len;
    pos = pos + len == keys.size() ? 0 : pos + len;
  }
}

OracleResult Check(const Workload& w, const Inputs& in, const RunResult& run,
                   size_t worker0_cap, Tracer* tracer) {
  OracleResult o;
  engine::ThreadedRuntime* rt = run.rt.get();
  const Job& job = *run.job;
  const Tracer::SpanId span =
      tracer ? tracer->Open(0, "oracle") : Tracer::kNoSpan;

  // Conservation: what the injectors sent is what the spout counted and
  // what the routed stage processed.
  const std::vector<uint64_t> spout = rt->Processed(job.spout);
  const std::vector<uint64_t> stage = rt->Processed(job.stage);
  uint64_t stage_total = 0;
  for (uint64_t n : stage) stage_total += n;
  for (uint32_t s = 0; s < w.sources; ++s) {
    if (spout[s] != run.injectors[s].injected) {
      o.Fail(AbsDiff(spout[s], run.injectors[s].injected),
             "source " + std::to_string(s) + " counted " +
                 std::to_string(spout[s]) + " of " +
                 std::to_string(run.injectors[s].injected));
    }
  }
  if (stage_total != run.injected) {
    o.Fail(AbsDiff(stage_total, run.injected),
           "stage processed " + std::to_string(stage_total) + " of " +
               std::to_string(run.injected));
  }
  uint64_t max_load = 0;
  for (uint64_t n : stage) max_load = std::max(max_load, n);
  o.load_imbalance = stage_total == 0
                         ? 0
                         : static_cast<double>(max_load) * stage.size() /
                                   static_cast<double>(stage_total) -
                               1.0;

  // Routing: each worker's count equals a RouteBatch replay of the exact
  // injected sequence on fresh replicas of the edge's partitioner.
  const Tracer::SpanId replay_span =
      tracer ? tracer->Open(0, "probe.route_replay", span) : Tracer::kNoSpan;
  auto replicas =
      partition::MakePartitionerReplicas(SpoutEdge(job), w.sources);
  PKGSTREAM_CHECK_OK(replicas.status());
  std::vector<uint64_t> replayed(w.workers, 0);
  WorkerId out[kBatch];
  const uint64_t replay0 = NowNs();
  for (uint32_t s = 0; s < w.sources; ++s) {
    partition::Partitioner* p = (*replicas)[s].get();
    ForEachInjectedChunk(in.keys[s], run.injectors[s].injected,
                         [&](const Key* keys, size_t len) {
                           p->RouteBatch(s, keys, out, len);
                           for (size_t i = 0; i < len; ++i) {
                             ++replayed[out[i]];
                             if (out[i] == 0 &&
                                 o.worker0_keys.size() < worker0_cap) {
                               o.worker0_keys.push_back(keys[i]);
                             }
                           }
                         });
  }
  o.route_ns_per_msg = static_cast<double>(NowNs() - replay0) /
                       static_cast<double>(std::max<uint64_t>(run.injected, 1));
  if (tracer) tracer->Close(replay_span);
  uint64_t misrouted = 0;
  for (uint32_t i = 0; i < w.workers; ++i) {
    misrouted += AbsDiff(replayed[i], stage[i]);
  }
  if (misrouted > 0) {
    o.Fail((misrouted + 1) / 2, "per-worker counts differ from the RouteBatch "
                                "replay by " + std::to_string(misrouted));
  }

  if (w.shape == Shape::kWordCount) {
    // Per-key totals against reference counts of the injected keys.
    std::vector<uint64_t> ref(in.key_space, 0);
    for (uint32_t s = 0; s < w.sources; ++s) {
      const std::vector<Key>& keys = in.keys[s];
      const uint64_t n = run.injectors[s].injected;
      const uint64_t cycles = n / keys.size();
      const uint64_t rest = n % keys.size();
      for (size_t i = 0; i < keys.size(); ++i) {
        ref[keys[i]] += cycles + (i < rest ? 1 : 0);
      }
    }
    std::vector<uint64_t> got(ref.size(), 0);
    uint64_t stray = 0;
    auto add = [&](const std::unordered_map<Key, uint64_t>& counts) {
      for (const auto& [key, count] : counts) {
        if (key < got.size()) {
          got[key] += count;
        } else {
          stray += count;
        }
      }
    };
    if (job.mode == apps::CounterMode::kPartialCounts) {
      add(static_cast<apps::TopKAggregator*>(rt->GetOperator(job.aggregator, 0))
              ->totals());
      for (uint64_t n : rt->Processed(job.aggregator)) o.state_entries += n;
    } else {
      for (uint32_t i = 0; i < w.workers; ++i) {
        auto* counter =
            static_cast<apps::WordCountCounter*>(rt->GetOperator(job.stage, i));
        add(counter->counts());
        o.state_entries += counter->MemoryCounters();
      }
    }
    uint64_t miscounted = stray;
    for (size_t k = 0; k < ref.size(); ++k) {
      miscounted += AbsDiff(ref[k], got[k]);
    }
    if (miscounted > 0) {
      o.Fail(miscounted, "per-key totals differ from the reference counts by " +
                             std::to_string(miscounted));
    }
  }

  if (w.shape == Shape::kPaced) {
    o.latency = engine::LatencySink::MergedHistogram(rt, job.stage, w.workers,
                                                    job.sink);
    if (o.latency.count() != run.injected) {
      o.Fail(AbsDiff(o.latency.count(), run.injected),
             "latency samples " + std::to_string(o.latency.count()) + " of " +
                 std::to_string(run.injected));
    }
  }
  if (tracer) tracer->Close(span);
  return o;
}

// ---------------------------------------------------------------------------
// Set-up time and per-layer probes
// ---------------------------------------------------------------------------

/// Appends timings of topology build plus ThreadedRuntime::Create, cycle
/// after cycle for `seconds` (at least kMinSetupCycles), after one untimed
/// cycle that refaults the memory the last round freed.
void MeasureSetup(const Workload& w, double seconds, std::vector<double>* out) {
  const uint64_t t_end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (int c = 0; c <= kMinSetupCycles || NowNs() < t_end; ++c) {
    const uint64_t t0 = NowNs();
    std::unique_ptr<Job> job = BuildJob(w);
    auto rt = engine::ThreadedRuntime::Create(&job->topology, RuntimeOptions());
    PKGSTREAM_CHECK_OK(rt.status());
    if (c > 0) out->push_back(static_cast<double>(NowNs() - t0) / 1e9);
    (*rt)->Finish();
  }
}

/// Repeats `body` (which returns the units it processed) for at least
/// `seconds`; returns ns per unit, all under one span.
template <typename Body>
double TimeProbe(Tracer* tracer, const char* name, double seconds, Body body) {
  const Tracer::SpanId span = tracer->Open(0, name);
  const uint64_t t0 = NowNs();
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  uint64_t units = 0;
  uint64_t elapsed = 0;
  do {
    units += body();
    elapsed = NowNs() - t0;
  } while (elapsed < budget);
  tracer->Close(span, static_cast<int64_t>(units));
  return static_cast<double>(elapsed) /
         static_cast<double>(std::max<uint64_t>(units, 1));
}

volatile uint64_t g_sink = 0;  // keeps probe results observable

double ProbeHash(const Workload& w, const Inputs& in, Tracer* tracer,
                 double seconds) {
  const uint32_t d = w.technique == Technique::kHashing ? 1 : 2;
  HashFamily family(d, w.workers, kRouteSeed);
  const std::vector<Key>& keys = in.keys[0];
  const size_t n = std::min<size_t>(keys.size(), size_t{1} << 20);
  std::vector<uint32_t> out(kBatch);
  return TimeProbe(tracer, "probe.hash", seconds, [&] {
    uint64_t acc = 0;
    for (uint32_t i = 0; i < d; ++i) {
      for (size_t off = 0; off < n; off += kBatch) {
        const size_t len = std::min(kBatch, n - off);
        family.BucketBatch(i, keys.data() + off, out.data(), len);
        acc += out[0];
      }
    }
    g_sink = g_sink + acc;
    return static_cast<uint64_t>(n) * d;
  });
}

/// SpscRing<Message> in one thread: four pushes of 16, one pop of 64 — the
/// emit-batch and drain-batch sizes of the runtime.
double ProbeRing(Tracer* tracer, double seconds) {
  engine::SpscRing<Message> ring(1024);
  Message staged[64];
  Message popped[64];
  return TimeProbe(tracer, "probe.ring", seconds, [&] {
    uint64_t moved = 0;
    for (int rep = 0; rep < 1024; ++rep) {
      for (int k = 0; k < 4; ++k) {
        staged[16 * k].key = static_cast<Key>(rep);
        ring.TryPushBatch(staged + 16 * k, 16);
      }
      moved += ring.TryPopBatch(popped, 64);
    }
    g_sink = g_sink + popped[0].key;
    return moved;
  });
}

/// paced-20k's InjectBatch calls are made by OpenLoopDriver's thread, where
/// the benchmark cannot time them, so this probe times them instead: one
/// message per call, as the paced driver mostly sends them, into fresh
/// runtimes that each take too few messages for any ring to fill.
void ProbePacedInject(const Workload& w, const Inputs& in, Tracer* tracer,
                      double seconds, InjectorResult* r) {
  constexpr size_t kMessagesPerRuntime = 1024;
  const Tracer::SpanId span = tracer->Open(0, "probe.inject");
  const std::vector<Key>& keys = in.keys[0];
  const uint64_t t0 = NowNs();
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  size_t pos = 0;
  do {
    std::unique_ptr<Job> job = BuildJob(w);
    auto rt = engine::ThreadedRuntime::Create(&job->topology, RuntimeOptions());
    PKGSTREAM_CHECK_OK(rt.status());
    for (size_t i = 0; i < kMessagesPerRuntime; ++i) {
      Message msg;
      msg.key = keys[pos];
      msg.ts = job->clock.NowMicros();
      pos = pos + 1 == keys.size() ? 0 : pos + 1;
      const uint64_t c0 = NowNs();
      (*rt)->InjectBatch(job->spout, 0, &msg, 1);
      const uint64_t c1 = NowNs();
      r->call_ns.Record(c1 - c0);
      tracer->Record(0, "inject_batch", c0, c1, span, r->batches++, 1);
    }
    r->injected += kMessagesPerRuntime;
    (*rt)->Finish();
  } while (NowNs() - t0 < budget);
  tracer->Close(span, static_cast<int64_t>(r->injected));
}

class DiscardEmitter final : public engine::Emitter {
 public:
  void Emit(const Message&) override { ++count_; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

/// Operator::Process of the routed stage on worker 0's sub-stream.
double ProbeProcess(const Workload& w, const std::vector<Key>& keys,
                    Tracer* tracer, double seconds) {
  if (keys.empty()) return 0;
  std::unique_ptr<Job> job = BuildJob(w);
  const engine::Topology::Node& node = job->topology.nodes()[job->stage.index];
  std::unique_ptr<engine::Operator> op = node.factory(0);
  engine::OperatorContext ctx;
  ctx.pe_name = node.name;
  ctx.instance = 0;
  ctx.parallelism = node.parallelism;
  op->Open(ctx);
  DiscardEmitter emitter;
  size_t pos = 0;
  const double ns = TimeProbe(tracer, "probe.process", seconds, [&] {
    Message msg;
    msg.ts = job->clock.NowMicros();
    const size_t len = std::min(kBatch, keys.size() - pos);
    for (size_t i = 0; i < len; ++i) {
      msg.key = keys[pos + i];
      op->Process(msg, &emitter);
    }
    pos = pos + len == keys.size() ? 0 : pos + len;
    return static_cast<uint64_t>(len);
  });
  g_sink = g_sink + emitter.count();
  return ns;
}

/// The same job on the single-threaded LogicalRuntime, in M msg/s.
double LogicalBaseline(const Workload& w, const Inputs& in, Tracer* tracer,
                       double seconds) {
  std::unique_ptr<Job> job = BuildJob(w);
  auto lrt = engine::LogicalRuntime::Create(&job->topology);
  PKGSTREAM_CHECK_OK(lrt.status());
  const Tracer::SpanId span = tracer->Open(0, "baseline.logical");
  const uint64_t t0 = NowNs();
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  std::vector<size_t> pos(w.sources, 0);
  Message msgs[kBatch];
  uint64_t injected = 0;
  while (NowNs() - t0 < budget) {
    for (uint32_t s = 0; s < w.sources; ++s) {
      const std::vector<Key>& keys = in.keys[s];
      const size_t len = std::min(kBatch, keys.size() - pos[s]);
      for (size_t i = 0; i < len; ++i) msgs[i].key = keys[pos[s] + i];
      (*lrt)->InjectBatch(job->spout, s, msgs, len);
      pos[s] = pos[s] + len == keys.size() ? 0 : pos[s] + len;
      injected += len;
    }
  }
  (*lrt)->Finish();
  const uint64_t elapsed = NowNs() - t0;
  tracer->Close(span, static_cast<int64_t>(injected));
  return static_cast<double>(injected) / static_cast<double>(elapsed) * 1e3;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

void AddMetric(JsonValue* metrics, const std::string& name, double value,
               const std::string& unit) {
  JsonValue m = JsonValue::Object();
  m.Set("value", JsonValue::Number(value));
  m.Set("unit", JsonValue::Str(unit));
  metrics->Set(name, std::move(m));
}

/// What one round contributes to the reported metrics; each reported value
/// is the median over rounds.
struct RoundMetrics {
  // End to end.
  double throughput_mps = 0;
  double latency_p50_us = 0;
  double latency_p95_us = 0;
  double latency_samples = 0;
  double cpu_us_per_msg = 0;
  // Per layer (reported from the traced rounds).
  double route_ns = 0;
  double load_imbalance = 0;
  double state_entries = 0;
  double inject_ns = 0;
  double inject_p99_us = 0;
  double inbox_p99 = 0;
  double finish_ms = 0;
  double injector_cpu_ns = 0;
  double worker_cpu_ns = 0;
  double lag_p99_us = 0;
  double record_share = 0;  ///< traced: injectors' share of time recording
};

/// Latency is, in a closed loop, the producer's wait per InjectBatch(256)
/// call and, in the open loop, each message's time from its scheduled
/// arrival to its processing at the sink. CPU is the process's, less the
/// paced driver thread's: that thread mostly waits for the next arrival,
/// which is the load generator's work, not the engine's.
RoundMetrics Summarize(const Workload& w, const RunResult& run,
                       const OracleResult& o) {
  RoundMetrics m;
  const double msgs = static_cast<double>(run.injected);
  stats::LatencyHistogram calls = run.injectors[0].call_ns;
  stats::LatencyHistogram lag = run.injectors[0].lag;
  stats::LatencyHistogram inbox = run.injectors[0].inbox;
  double injector_cpu_ns = 0;
  double busy_ns = 0;
  double trace_ns = 0;
  for (size_t s = 0; s < run.injectors.size(); ++s) {
    const InjectorResult& r = run.injectors[s];
    if (s > 0) {
      calls.Merge(r.call_ns);
      lag.Merge(r.lag);
      inbox.Merge(r.inbox);
    }
    injector_cpu_ns += static_cast<double>(r.cpu_ns);
    busy_ns += static_cast<double>(r.busy_ns);
    trace_ns += static_cast<double>(r.trace_ns);
  }
  const double generator_cpu_ns =
      w.shape == Shape::kPaced ? injector_cpu_ns : 0;
  m.throughput_mps = msgs / run.wall_s / 1e6;
  m.cpu_us_per_msg = (run.cpu_s * 1e9 - generator_cpu_ns) / 1e3 / msgs;
  m.inject_ns = calls.mean() * static_cast<double>(calls.count()) / msgs;
  m.inject_p99_us = static_cast<double>(calls.P99()) / 1e3;
  if (w.shape == Shape::kPaced) {
    m.latency_p50_us = static_cast<double>(o.latency.P50());
    m.latency_p95_us = static_cast<double>(o.latency.P95());
    m.latency_samples = static_cast<double>(o.latency.count());
    m.lag_p99_us = static_cast<double>(lag.P99());
  } else {
    m.latency_p50_us = static_cast<double>(calls.P50()) / 1e3;
    m.latency_p95_us = static_cast<double>(calls.P95()) / 1e3;
    m.latency_samples = static_cast<double>(calls.count());
    m.lag_p99_us = static_cast<double>(lag.P99()) / 1e3;
  }
  m.route_ns = o.route_ns_per_msg;
  m.load_imbalance = o.load_imbalance;
  m.state_entries = static_cast<double>(o.state_entries);
  m.inbox_p99 = static_cast<double>(inbox.P99());
  m.finish_ms = run.finish_ms;
  m.injector_cpu_ns = injector_cpu_ns / msgs;
  m.worker_cpu_ns =
      std::max(0.0, run.cpu_s * 1e9 - injector_cpu_ns) / msgs;
  m.record_share = busy_ns > 0 ? trace_ns / busy_ns : 0;
  return m;
}

double MedianOf(const std::vector<RoundMetrics>& rounds,
                double RoundMetrics::*field) {
  std::vector<double> values;
  for (const RoundMetrics& m : rounds) values.push_back(m.*field);
  return values.empty() ? 0 : Median(values);
}

int Main(int argc, char** argv) {
  Flags flags;
  Status parsed = Flags::Parse(argc, argv, &flags);
  const std::string name = flags.GetString("workload", "");
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (name == candidate.name) w = &candidate;
  }
  const double seconds_flag = flags.GetDouble("seconds", 30.0);
  const int64_t seed_flag = flags.GetInt("seed", 1);
  if (!parsed.ok() || w == nullptr || !(seconds_flag > 0) ||
      seconds_flag > 600 || seed_flag < 0) {
    std::cerr << "usage: pkgbench --workload "
                 "{wordcount|wordcount-kg|paced-20k} "
                 "[--seed N] [--seconds S] [--trace 0|1] [--trace_out PATH] "
                 "[--smoke] [--commit SHA] [--record PATH]\n";
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(seed_flag);
  const bool trace = flags.GetBool("trace", false);
  const bool smoke = flags.GetBool("smoke", false);
  // --smoke: about 1% of the messages, so all the workloads finish in
  // seconds (a CI hook, not a measurement).
  const double seconds = smoke ? seconds_flag / 100 : seconds_flag;
  // A traced run alternates untraced and traced rounds, kRounds of each.
  const int rounds = trace ? 2 * kRounds : kRounds;
  const double round_s = seconds / rounds;
  const double probe_s = smoke ? kProbeSeconds / 10 : kProbeSeconds;

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (nproc < static_cast<long>(kPlannedCores)) {
    std::cerr << "WARNING: nproc=" << nproc << " < " << kPlannedCores
              << ": the run uses up to " << w->sources + kShards
              << " threads, so threads share cores and timings are not "
                 "comparable with a 4-core host\n";
  }

  const uint64_t gen0 = NowNs();
  const Inputs in = MakeInputs(*w, seed, round_s, smoke);
#if defined(__GLIBC__)
  malloc_trim(0);  // generator scratch must not hide the run's memory rise
#endif
  std::cerr << "pkgbench " << w->name << ": seed " << seed << ", inputs "
            << in.keys[0].size() << " keys x " << w->sources << " source(s) in "
            << static_cast<double>(NowNs() - gen0) / 1e9 << " s; " << rounds
            << " rounds of " << round_s << " s\n";

  // Untraced and traced rounds alternate in a traced run, so drift in the
  // host's speed falls on both sides of trace.overhead_frac alike.
  std::unique_ptr<Tracer> tracer;
  if (trace) {
    tracer = std::make_unique<Tracer>(
        w->sources + 1,
        static_cast<size_t>(kRounds * round_s * 50000.0) + 4096);
  }
  std::vector<RoundMetrics> plain, traced;
  std::vector<double> setup_s;
  std::vector<Key> worker0_keys;
  bool correct = true;
  uint64_t failed = 0;
  std::vector<uint64_t> per_source(w->sources, 0);
  double mem_peak_mb = 0;  // over every untraced round, rerun ones too
  int replaced = 0;
  int kept_disturbed = 0;
  const uint64_t loop0 = NowNs();
  for (int round = 0; round < rounds; ++round) {
    Tracer* t = trace && round % 2 == 1 ? tracer.get() : nullptr;
    RunResult run = RunOnce(*w, in, round_s, t);
    if (!run.mem_reset_ok && round == 0) {
      std::cerr << "WARNING: cannot reset VmHWM; mem_peak_mb is the rise "
                   "over the process peak so far\n";
    }
    OracleResult o = Check(*w, in, run, t ? size_t{1} << 20 : 0, t);
    for (const std::string& note : o.notes) {
      std::cerr << "ORACLE FAIL (round " << round << "): " << note << "\n";
    }
    correct = correct && o.failed == 0;
    failed += o.failed;
    for (uint32_t s = 0; s < w->sources; ++s) {
      per_source[s] += run.injectors[s].injected;
    }
    (t ? traced : plain).push_back(Summarize(*w, run, o));
    std::fprintf(stderr,
                 "  round %d%s: %llu messages, %.3f s, finish %.1f ms, "
                 "%.4g Mmsg/s, memory rise %.2f MB, generator lag p99 %.1f "
                 "us, steal %.1f%%\n",
                 round, t ? " (traced)" : "",
                 static_cast<unsigned long long>(run.injected), run.wall_s,
                 run.finish_ms, (t ? traced : plain).back().throughput_mps,
                 run.mem_rise_mb, (t ? traced : plain).back().lag_p99_us,
                 100 * run.steal_frac);
    if (!t) mem_peak_mb = std::max(mem_peak_mb, run.mem_rise_mb);
    if (t) worker0_keys = std::move(o.worker0_keys);
    const bool lagging = w->shape == Shape::kPaced &&
                         (t ? traced : plain).back().lag_p99_us >
                             static_cast<double>(kMaxLagP99Us);
    if (lagging || run.steal_frac > kMaxStealFrac) {
      if (NowNs() - loop0 < static_cast<uint64_t>(kRerunSeconds * 1e9)) {
        (t ? traced : plain).pop_back();
        ++replaced;
        --round;
        std::cerr << "  round disturbed by the host ("
                  << (lagging ? "generator behind" : "steal") << "); rerun\n";
      } else {
        ++kept_disturbed;
      }
    }
    run = RunResult();
    if (!trace) MeasureSetup(*w, smoke ? 0 : kSetupSeconds, &setup_s);
#if defined(__GLIBC__)
    malloc_trim(0);  // each round's memory rise starts from a trimmed heap
#endif
  }
  uint64_t attempted = 0;
  for (uint64_t n : per_source) attempted += n;
  // A disturbing host is not a wrong output: the run is marked invalid in
  // its fingerprint, and `correct` stays the oracles'.
  const bool valid = 2 * kept_disturbed < rounds;
  if (replaced > 0) {
    std::cerr << "  rounds rerun after a host disturbance: " << replaced
              << "\n";
  }
  if (!valid) {
    std::cerr << "INVALID: " << kept_disturbed << " of " << rounds
              << " rounds were disturbed by the host\n";
  }

  JsonValue metrics = JsonValue::Object();
  if (!trace) {
    AddMetric(&metrics, "throughput_mps",
              MedianOf(plain, &RoundMetrics::throughput_mps), "Mmsg/s");
    AddMetric(&metrics, "latency_p50_us",
              MedianOf(plain, &RoundMetrics::latency_p50_us), "us");
    AddMetric(&metrics, "latency_p95_us",
              MedianOf(plain, &RoundMetrics::latency_p95_us), "us");
    AddMetric(&metrics, "cpu_us_per_msg",
              MedianOf(plain, &RoundMetrics::cpu_us_per_msg), "us");
    AddMetric(&metrics, "mem_peak_mb", mem_peak_mb, "MB");
    AddMetric(&metrics, "setup_s", Median(setup_s), "s");
    std::cerr << "  set-up cycles timed: " << setup_s.size() << "\n";
    std::cerr << "  latency samples per round: "
              << MedianOf(plain, &RoundMetrics::latency_samples) << " ("
              << (w->shape == Shape::kPaced ? "per message"
                                            : "per InjectBatch call")
              << ")\n";
  } else {
    const double route_ns = MedianOf(traced, &RoundMetrics::route_ns);
    double inject_ns = MedianOf(traced, &RoundMetrics::inject_ns);
    double inject_p99_us = MedianOf(traced, &RoundMetrics::inject_p99_us);
    if (w->shape == Shape::kPaced) {
      InjectorResult probe;
      ProbePacedInject(*w, in, tracer.get(), probe_s, &probe);
      inject_ns = probe.call_ns.mean();
      inject_p99_us = static_cast<double>(probe.call_ns.P99()) / 1e3;
    }
    const double worker_cpu_ns = MedianOf(traced, &RoundMetrics::worker_cpu_ns);
    const double hash_ns = ProbeHash(*w, in, tracer.get(), probe_s);
    const double ring_ns = ProbeRing(tracer.get(), probe_s);
    const double process_ns =
        ProbeProcess(*w, worker0_keys, tracer.get(), probe_s);
    const double logical_mps = LogicalBaseline(
        *w, in, tracer.get(), smoke ? kLogicalSeconds / 10 : kLogicalSeconds);
    AddMetric(&metrics, "hash.bucket_batch_ns_per_key", hash_ns, "ns");
    AddMetric(&metrics, "partition.route_batch_ns_per_msg", route_ns, "ns");
    AddMetric(&metrics, "partition.load_imbalance",
              MedianOf(traced, &RoundMetrics::load_imbalance), "ratio");
    AddMetric(&metrics, "engine.inject_batch_ns_per_msg", inject_ns, "ns");
    AddMetric(&metrics, "engine.inject_batch_p99_us", inject_p99_us, "us");
    AddMetric(&metrics, "engine.inject_unattributed_ns_per_msg",
              inject_ns - route_ns - ring_ns, "ns");
    AddMetric(&metrics, "engine.ring_ns_per_msg", ring_ns, "ns");
    AddMetric(&metrics, "engine.inbox_depth_p99",
              MedianOf(traced, &RoundMetrics::inbox_p99), "count");
    AddMetric(&metrics, "engine.finish_ms",
              MedianOf(traced, &RoundMetrics::finish_ms), "ms");
    AddMetric(&metrics, "engine.injector_cpu_ns_per_msg",
              MedianOf(traced, &RoundMetrics::injector_cpu_ns), "ns");
    AddMetric(&metrics, "engine.worker_cpu_ns_per_msg", worker_cpu_ns, "ns");
    AddMetric(&metrics, "engine.worker_useful_frac",
              worker_cpu_ns > 0 ? process_ns / worker_cpu_ns : 0, "ratio");
    AddMetric(&metrics, "apps.process_ns_per_msg", process_ns, "ns");
    AddMetric(&metrics, "apps.state_entries",
              MedianOf(traced, &RoundMetrics::state_entries), "count");
    AddMetric(&metrics, "driver.lag_p99_us",
              MedianOf(traced, &RoundMetrics::lag_p99_us), "us");
    AddMetric(&metrics, "baseline.logical_mps", logical_mps, "Mmsg/s");
    // What tracing costs: the throughput the traced rounds lost against the
    // untraced rounds they alternate with (medians). The injectors' share of
    // time spent recording spans is printed as a cross-check; it misses the
    // indirect costs (span writes evicting the engine's cache lines).
    AddMetric(&metrics, "trace.overhead_frac",
              1.0 - MedianOf(traced, &RoundMetrics::throughput_mps) /
                        MedianOf(plain, &RoundMetrics::throughput_mps),
              "ratio");
    std::cerr << "  injectors' share of time recording spans (median): "
              << MedianOf(traced, &RoundMetrics::record_share) << "\n";

    std::fprintf(stderr, "  %zu spans (%llu dropped)\n  %-24s %10s %14s %14s\n",
                 tracer->size(),
                 static_cast<unsigned long long>(tracer->dropped()), "span",
                 "count", "total ms", "self ms");
    for (const Tracer::SelfTime& st : tracer->SelfTimes()) {
      std::fprintf(stderr, "  %-24s %10llu %14.3f %14.3f\n", st.name.c_str(),
                   static_cast<unsigned long long>(st.count),
                   static_cast<double>(st.total_ns) / 1e6,
                   static_cast<double>(st.self_ns) / 1e6);
    }
  }

  JsonValue host = JsonValue::Object();
  host.Set("workload", JsonValue::Str(w->name));
  host.Set("seed", JsonValue::Number(static_cast<double>(seed)));
  host.Set("seconds", JsonValue::Number(seconds));
  host.Set("rounds", JsonValue::Number(rounds));
  host.Set("trace", JsonValue::Bool(trace));
  host.Set("smoke", JsonValue::Bool(smoke));
  host.Set("valid", JsonValue::Bool(valid));
  host.Set("rounds_rerun", JsonValue::Number(replaced));
  host.Set("commit", JsonValue::Str(flags.GetString("commit", "unknown")));
  host.Set("cpu", JsonValue::Str(CpuModel()));
  host.Set("nproc", JsonValue::Number(static_cast<double>(nproc)));
  host.Set("nproc_below_plan", JsonValue::Bool(nproc < kPlannedCores));
  host.Set("threads", JsonValue::Number(w->sources + kShards));
  host.Set("simd",
           JsonValue::Str(simd::SimdLevelName(simd::ActiveSimdLevel())));
  host.Set("messages", JsonValue::Number(static_cast<double>(attempted)));
  JsonValue sources = JsonValue::Array();
  for (uint64_t n : per_source) {
    sources.Append(JsonValue::Number(static_cast<double>(n)));
  }
  host.Set("messages_per_source", std::move(sources));

  if (trace) {
    const std::string trace_out = flags.GetString("trace_out", "");
    if (!trace_out.empty()) {
      Status written = tracer->WriteChromeTrace(trace_out, CompactJson(host));
      if (!written.ok()) {
        std::cerr << "cannot write the trace: " << written << "\n";
        return 2;
      }
      std::cerr << "  trace written to " << trace_out << "\n";
    }
  }

  JsonValue result = JsonValue::Object();
  result.Set("correct", JsonValue::Bool(correct));
  result.Set("attempted", JsonValue::Number(static_cast<double>(attempted)));
  result.Set("failed", JsonValue::Number(static_cast<double>(failed)));
  result.Set("metrics", metrics);
  for (const auto& [metric, value] : metrics.members()) {
    std::fprintf(stderr, "  %-40s %16.6g %s\n", metric.c_str(),
                 value.NumberOr("value", 0),
                 value.StringOr("unit", "").c_str());
  }

  const std::string record = flags.GetString("record", "");
  if (!record.empty()) {
    JsonValue line = JsonValue::Object();
    line.Set("fingerprint", host);
    line.Set("result", result);
    std::ofstream out(record, std::ios::app);
    out << CompactJson(line) << "\n";
    if (!out) {
      std::cerr << "cannot append to " << record << "\n";
      return 2;
    }
  }
  JsonValue fingerprint = JsonValue::Object();
  fingerprint.Set("fingerprint", std::move(host));
  std::cout << CompactJson(fingerprint) << "\n"
            << CompactJson(result) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pkgbench
}  // namespace pkgstream

int main(int argc, char** argv) {
  return pkgstream::pkgbench::Main(argc, argv);
}
