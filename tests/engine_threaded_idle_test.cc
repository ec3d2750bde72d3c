// Copyright 2026 The pkgstream Authors.
// Tests for ThreadedRuntime's idle path: spouts publish at the end of every
// Inject/InjectBatch call (nothing waits in an out-buffer for Finish), the
// shards' adaptive spin budget parks at once under sparse traffic and spins
// through dense traffic, and sparse injection — every message waking a
// parked shard — delivers everything without hanging. The runtime suites
// here match the ThreadSanitizer job's 'Threaded' filter.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "apps/wordcount.h"
#include "engine/threaded_runtime.h"

namespace pkgstream {
namespace engine {
namespace {

// ---------------------------------------------------------------------------
// ShardSpinBudget, driven by synthetic idle periods (no threads)
// ---------------------------------------------------------------------------

/// How often the replay below consults the budget: roughly one empty sweep
/// over a few rings.
constexpr uint64_t kSweepNs = 100;

/// Replays one idle period of `gap_ns` the way RunShard polls the budget
/// (one Spin check per sweep until work arrives or the budget runs out),
/// then reports the work. Returns the idle time at which the shard parked,
/// or -1 when it spun through the whole gap.
int64_t ReplayIdlePeriod(ShardSpinBudget& budget, uint64_t gap_ns) {
  int64_t parked_at = -1;
  for (uint64_t t = 0; t < gap_ns; t += kSweepNs) {
    if (!budget.Spin(t)) {
      parked_at = static_cast<int64_t>(t);
      break;
    }
  }
  budget.OnWork(gap_ns);
  return parked_at;
}

TEST(ShardSpinBudgetTest, StartsParkingAtOnce) {
  ShardSpinBudget budget;
  EXPECT_FALSE(budget.Spin(0));
}

TEST(ShardSpinBudgetTest, SparseGapsCollapseTheBudgetAndParkAtOnce) {
  ShardSpinBudget budget;
  budget.OnWork(ShardSpinBudget::kMaxSpinNs);  // a dense phase came first
  ASSERT_EQ(budget.budget_ns(), ShardSpinBudget::kMaxSpinNs);
  std::mt19937_64 rng(7);
  // Gaps of 5-50x the spin bound: a paced sink between messages.
  std::uniform_int_distribution<uint64_t> gap(
      5 * ShardSpinBudget::kMaxSpinNs, 50 * ShardSpinBudget::kMaxSpinNs);
  // Halving from the bound reaches 0 within its bit width.
  for (int i = 0; i < 64 && budget.budget_ns() > 0; ++i) {
    ReplayIdlePeriod(budget, gap(rng));
  }
  ASSERT_EQ(budget.budget_ns(), 0u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(ReplayIdlePeriod(budget, gap(rng)), 0) << "period " << i;
  }
  EXPECT_EQ(budget.budget_ns(), 0u);
}

TEST(ShardSpinBudgetTest, DenseGapsKeepSpinningWithoutParking) {
  ShardSpinBudget budget;
  std::mt19937_64 rng(11);
  // Gaps of 0.1-4 us: a closed-loop producer between published batches.
  std::uniform_int_distribution<uint64_t> gap(100, 4000);
  // The first gap is parked through (a new budget is 0) but measured, and
  // that is enough to spin through the rest.
  EXPECT_EQ(ReplayIdlePeriod(budget, 4000), 0);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(ReplayIdlePeriod(budget, gap(rng)), -1) << "period " << i;
  }
  EXPECT_EQ(budget.budget_ns(), 8000u);
}

TEST(ShardSpinBudgetTest, DenseTrafficRecoversAfterSparseCollapse) {
  ShardSpinBudget budget;
  budget.OnWork(2000);
  for (int i = 0; i < 64 && budget.budget_ns() > 0; ++i) {
    ReplayIdlePeriod(budget, 10 * ShardSpinBudget::kMaxSpinNs);
  }
  ASSERT_EQ(budget.budget_ns(), 0u);
  // As at start-up: one parked short gap restores spinning for the rest of
  // the dense phase.
  EXPECT_EQ(ReplayIdlePeriod(budget, 2000), 0);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(ReplayIdlePeriod(budget, 2000), -1) << "period " << i;
  }
  // One long stall halves the budget; it does not stop the spinning.
  ReplayIdlePeriod(budget, 10 * ShardSpinBudget::kMaxSpinNs);
  EXPECT_EQ(ReplayIdlePeriod(budget, 1500), -1);
}

TEST(ShardSpinBudgetTest, SpinIsCappedAtTheBound) {
  ShardSpinBudget budget;
  for (int i = 0; i < 100; ++i) budget.OnWork(ShardSpinBudget::kMaxSpinNs);
  EXPECT_EQ(budget.budget_ns(), ShardSpinBudget::kMaxSpinNs);
  EXPECT_FALSE(budget.Spin(ShardSpinBudget::kMaxSpinNs));
}

// ---------------------------------------------------------------------------
// Spout flush: injected messages are visible before Finish()
// ---------------------------------------------------------------------------

/// Counts the messages it processes in an atomic the test thread polls.
class SeenSink final : public Operator {
 public:
  explicit SeenSink(std::atomic<uint64_t>* seen) : seen_(seen) {}
  void Process(const Message&, Emitter*) override {
    seen_->fetch_add(1, std::memory_order_release);
  }

 private:
  std::atomic<uint64_t>* seen_;
};

/// Polls `seen` until it reaches `want` or `timeout` passes; returns the
/// last value read.
uint64_t WaitForSeen(const std::atomic<uint64_t>& seen, uint64_t want,
                     std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  uint64_t got = seen.load(std::memory_order_acquire);
  while (got < want && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    got = seen.load(std::memory_order_acquire);
  }
  return got;
}

class ThreadedSpoutFlushTest : public testing::Test {
 protected:
  void SetUp() override {
    spout_ = topology_.AddSpout("src", 1);
    sink_ = topology_.AddOperator(
        "sink",
        [this](uint32_t) { return std::make_unique<SeenSink>(&seen_); }, 4);
    partition::PartitionerConfig config;
    config.technique = partition::Technique::kHashing;
    ASSERT_TRUE(topology_.Connect(spout_, sink_, config).ok());
    ThreadedRuntimeOptions options;
    options.emit_batch = 16;  // far more than one call sends anywhere
    // A shard wedged behind unpublished messages fails loudly in Finish.
    options.finish_deadline_ms = 30000;
    auto rt = ThreadedRuntime::Create(&topology_, options);
    ASSERT_TRUE(rt.ok());
    rt_ = std::move(*rt);
  }

  std::atomic<uint64_t> seen_{0};
  Topology topology_;
  NodeId spout_;
  NodeId sink_;
  std::unique_ptr<ThreadedRuntime> rt_;
};

TEST_F(ThreadedSpoutFlushTest, SingleInjectReachesSinkBeforeFinish) {
  Message msg;
  msg.key = 42;
  rt_->Inject(spout_, 0, msg);
  EXPECT_EQ(WaitForSeen(seen_, 1, std::chrono::seconds(10)), 1u)
      << "an injected message waited in the spout's out-buffer";
  rt_->Finish();
  EXPECT_EQ(seen_.load(), 1u);
}

TEST_F(ThreadedSpoutFlushTest, InjectBatchOfThreeReachesSinkBeforeFinish) {
  Message msgs[3];
  for (int i = 0; i < 3; ++i) msgs[i].key = static_cast<Key>(100 + i);
  rt_->InjectBatch(spout_, 0, msgs, 3);
  EXPECT_EQ(WaitForSeen(seen_, 3, std::chrono::seconds(10)), 3u)
      << "a batch's last partial emit batch waited in the out-buffer";
  rt_->Finish();
  EXPECT_EQ(seen_.load(), 3u);
}

// ---------------------------------------------------------------------------
// Sparse injection: every message wakes a parked shard
// ---------------------------------------------------------------------------

struct SparseParam {
  const char* name;
  size_t shards;
};

class ThreadedSparseInjectTest : public testing::TestWithParam<SparseParam> {
};

TEST_P(ThreadedSparseInjectTest, EveryMessageDeliveredWithoutHanging) {
  constexpr uint32_t kSources = 2;
  constexpr uint32_t kWorkers = 6;
  constexpr int kPerSource = 300;
  apps::WordCountTopology wc = apps::MakeWordCountTopology(
      partition::Technique::kPkgLocal, kSources, kWorkers, /*tick=*/0,
      /*topk=*/5, 42);
  ThreadedRuntimeOptions options;
  options.shards = GetParam().shards;
  options.finish_deadline_ms = 60000;
  auto rt = ThreadedRuntime::Create(&wc.topology, options);
  ASSERT_TRUE(rt.ok());

  // Each source sleeps 0-300 us between single-message injections: gaps
  // far beyond the spin bound, so shards keep parking and being woken.
  std::vector<std::thread> injectors;
  std::vector<std::map<Key, uint64_t>> expected(kSources);
  for (uint32_t s = 0; s < kSources; ++s) {
    injectors.emplace_back([&, s] {
      std::mt19937_64 rng(100 + s);
      std::uniform_int_distribution<Key> key(0, 49);
      std::uniform_int_distribution<int> gap_us(0, 300);
      for (int i = 0; i < kPerSource; ++i) {
        Message msg;
        msg.key = key(rng);
        ++expected[s][msg.key];
        if (i % 2 == 0) {
          (*rt)->Inject(wc.spout, s, msg);
        } else {
          (*rt)->InjectBatch(wc.spout, s, &msg, 1);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(gap_us(rng)));
      }
    });
  }
  for (auto& t : injectors) t.join();
  (*rt)->Finish();

  uint64_t processed = 0;
  for (uint64_t n : (*rt)->Processed(wc.counter)) processed += n;
  EXPECT_EQ(processed, uint64_t{kSources} * kPerSource);
  std::map<Key, uint64_t> want;
  for (const auto& m : expected) {
    for (const auto& [k, c] : m) want[k] += c;
  }
  auto* agg =
      static_cast<apps::TopKAggregator*>((*rt)->GetOperator(wc.aggregator, 0));
  const std::map<Key, uint64_t> got(agg->totals().begin(),
                                    agg->totals().end());
  EXPECT_EQ(got, want);

  uint64_t parks = 0;
  for (const ShardIdleStats& s : (*rt)->IdleStats()) {
    EXPECT_GE(s.parks, s.notify_wakes + s.timeout_wakes);
    parks += s.parks;
  }
  EXPECT_GT(parks, 0u) << "sparse traffic never parked a shard";
}

INSTANTIATE_TEST_SUITE_P(
    Shards, ThreadedSparseInjectTest,
    testing::Values(SparseParam{"OneShard", 1},
                    SparseParam{"ShardPerInstance", 0}),
    [](const testing::TestParamInfo<SparseParam>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace engine
}  // namespace pkgstream
