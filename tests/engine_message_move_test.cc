// Copyright 2026 The pkgstream Authors.
// Messages are plain data: both runtimes copy them by value through queue
// entries, emit out-buffers and rings (SpscRing uses memcpy), so every
// field must arrive bit for bit as it was sent. The probe messages carry
// distinct keys, negative integers, doubles whose bit patterns a lossy
// copy would change (-0.0, NaNs with payloads, a denormal), tags up to the
// last one below the engine's reserved kEosTag, and large timestamps. The
// topology fans the spout out to two edges — one straight to the sinks,
// one through a relay bolt — so both the inject path and the bolt-emit
// path are covered; small rings make the ThreadedRuntime batches wrap.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "engine/logical_runtime.h"
#include "engine/threaded_runtime.h"

namespace pkgstream {
namespace engine {
namespace {

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// The i-th probe message; keys are distinct so arrivals can be matched
/// back to what was sent.
Message Probe(size_t i) {
  static constexpr uint64_t kF64Bits[] = {
      0x8000000000000000ull,  // -0.0
      0x7FF8DEADBEEF1234ull,  // quiet NaN with a payload
      0xFFF8000000000042ull,  // negative quiet NaN with a payload
      0x0000000000000001ull,  // smallest denormal
      0xFFF0000000000000ull,  // -infinity
      0x3FF0000000000001ull,  // 1.0 plus one ulp
  };
  Message m;
  m.key = i * 0x9E3779B97F4A7C15ull + 1;
  m.i64 = i == 0 ? std::numeric_limits<int64_t>::min()
                 : -static_cast<int64_t>(i) * 1000003;
  m.f64 = FromBits(kF64Bits[i % (sizeof(kF64Bits) / sizeof(kF64Bits[0]))]);
  m.tag = i % 2 == 0 ? static_cast<uint32_t>(i) : kEosTag - 1;
  m.ts = ~static_cast<StreamTime>(i);
  return m;
}

/// Records every processed message (mutex-guarded: ThreadedRuntime runs
/// instances on shard threads).
class RecordingSink final : public Operator {
 public:
  void Process(const Message& msg, Emitter*) override {
    std::lock_guard<std::mutex> lock(mu_);
    seen_.push_back(msg);
  }

  std::vector<Message> seen() {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_;
  }

 private:
  std::mutex mu_;
  std::vector<Message> seen_;
};

/// Re-emits every message unchanged (the bolt-emit path).
class RelayOp final : public Operator {
 public:
  void Process(const Message& msg, Emitter* out) override { out->Emit(msg); }
};

/// spout -> direct sinks x2, and spout -> relay -> relayed sinks x2.
struct FanOutTopology {
  Topology topology;
  NodeId spout;
  std::vector<RecordingSink*> direct;
  std::vector<RecordingSink*> relayed;
};

std::unique_ptr<FanOutTopology> MakeFanOut() {
  auto t = std::make_unique<FanOutTopology>();
  t->direct.assign(2, nullptr);
  t->relayed.assign(2, nullptr);
  t->spout = t->topology.AddSpout("src", 1);
  auto sink_factory = [](std::vector<RecordingSink*>* slots) {
    return [slots](uint32_t i) {
      auto op = std::make_unique<RecordingSink>();
      (*slots)[i] = op.get();
      return op;
    };
  };
  NodeId direct =
      t->topology.AddOperator("direct", sink_factory(&t->direct), 2);
  NodeId relay = t->topology.AddOperator(
      "relay", [](uint32_t) { return std::make_unique<RelayOp>(); }, 1);
  NodeId relayed =
      t->topology.AddOperator("relayed", sink_factory(&t->relayed), 2);
  EXPECT_TRUE(
      t->topology.Connect(t->spout, direct, partition::Technique::kHashing)
          .ok());
  EXPECT_TRUE(
      t->topology.Connect(t->spout, relay, partition::Technique::kHashing)
          .ok());
  EXPECT_TRUE(
      t->topology.Connect(relay, relayed, partition::Technique::kHashing)
          .ok());
  return t;
}

constexpr size_t kMessages = 300;  // the batch below spans two route chunks
constexpr size_t kScalar = 20;     // injected one at a time first

/// Injects the probes: the first kScalar through Inject, the rest through
/// one InjectBatch call.
template <typename Runtime>
void InjectProbes(Runtime* rt, NodeId spout) {
  std::vector<Message> msgs;
  for (size_t i = 0; i < kMessages; ++i) msgs.push_back(Probe(i));
  for (size_t i = 0; i < kScalar; ++i) rt->Inject(spout, 0, msgs[i]);
  rt->InjectBatch(spout, 0, msgs.data() + kScalar, kMessages - kScalar);
}

/// Every probe arrives exactly once across `sinks`, in send order within
/// each sink instance (one source, one relay: per-ring FIFO), with every
/// field bit-exact. `stamped`: the runtime overwrites ts with the
/// 1-based injection ordinal (LogicalRuntime) instead of carrying it.
void ExpectDeliveredBitExact(const std::vector<RecordingSink*>& sinks,
                             bool stamped) {
  std::unordered_map<Key, size_t> index;
  for (size_t i = 0; i < kMessages; ++i) index[Probe(i).key] = i;
  std::vector<int> arrivals(kMessages, 0);
  for (RecordingSink* sink : sinks) {
    ASSERT_NE(sink, nullptr);
    size_t last = 0;
    bool first = true;
    for (const Message& got : sink->seen()) {
      const auto it = index.find(got.key);
      ASSERT_NE(it, index.end()) << "unknown key " << got.key;
      const size_t i = it->second;
      const Message want = Probe(i);
      EXPECT_EQ(got.i64, want.i64) << "message " << i;
      EXPECT_EQ(Bits(got.f64), Bits(want.f64)) << "message " << i;
      EXPECT_EQ(got.tag, want.tag) << "message " << i;
      EXPECT_EQ(got.ts, stamped ? i + 1 : want.ts) << "message " << i;
      EXPECT_TRUE(first || i > last) << "message " << i << " after " << last;
      first = false;
      last = i;
      ++arrivals[i];
    }
  }
  for (size_t i = 0; i < kMessages; ++i) {
    EXPECT_EQ(arrivals[i], 1) << "message " << i;
  }
}

TEST(MessageFieldsTest, LogicalRuntimeDeliversEveryFieldBitExact) {
  auto t = MakeFanOut();
  auto rt = LogicalRuntime::Create(&t->topology);
  ASSERT_TRUE(rt.ok()) << rt.status();
  InjectProbes(rt->get(), t->spout);
  (*rt)->Finish();
  ExpectDeliveredBitExact(t->direct, /*stamped=*/true);
  ExpectDeliveredBitExact(t->relayed, /*stamped=*/true);
}

TEST(MessageFieldsThreadedTest, WrappingRingsDeliverEveryFieldBitExact) {
  for (size_t emit_batch : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("emit_batch " + std::to_string(emit_batch));
    auto t = MakeFanOut();
    ThreadedRuntimeOptions options;
    options.emit_batch = emit_batch;
    options.queue_capacity = 4;  // batches straddle the ring's wrap point
    auto rt = ThreadedRuntime::Create(&t->topology, options);
    ASSERT_TRUE(rt.ok()) << rt.status();
    InjectProbes(rt->get(), t->spout);
    (*rt)->Finish();
    ExpectDeliveredBitExact(t->direct, /*stamped=*/false);
    ExpectDeliveredBitExact(t->relayed, /*stamped=*/false);
  }
}

/// Injects a batch whose last message carries the reserved tag.
void InjectReservedTag() {
  auto t = MakeFanOut();
  auto rt = ThreadedRuntime::Create(&t->topology);
  PKGSTREAM_CHECK_OK(rt.status());
  std::vector<Message> msgs = {Probe(0), Probe(1), Probe(2)};
  msgs[2].tag = kEosTag;
  (*rt)->InjectBatch(t->spout, 0, msgs.data(), msgs.size());
}

/// Re-emits every message with the reserved tag.
class EosForger final : public Operator {
 public:
  void Process(const Message& msg, Emitter* out) override {
    Message forged = msg;
    forged.tag = kEosTag;
    out->Emit(forged);
  }
};

/// Runs one message through a bolt that forges the reserved tag.
void EmitReservedTag() {
  Topology topology;
  NodeId spout = topology.AddSpout("src", 1);
  NodeId forger = topology.AddOperator(
      "forger", [](uint32_t) { return std::make_unique<EosForger>(); }, 1);
  NodeId sink = topology.AddOperator(
      "sink", [](uint32_t) { return std::make_unique<RecordingSink>(); }, 1);
  PKGSTREAM_CHECK_OK(
      topology.Connect(spout, forger, partition::Technique::kHashing));
  PKGSTREAM_CHECK_OK(
      topology.Connect(forger, sink, partition::Technique::kHashing));
  auto rt = ThreadedRuntime::Create(&topology);
  PKGSTREAM_CHECK_OK(rt.status());
  (*rt)->Inject(spout, 0, Probe(0));
  (*rt)->Finish();
}

TEST(MessageFieldsThreadedDeathTest, InjectOfReservedTagDies) {
  EXPECT_DEATH(InjectReservedTag(), "tag 4294967295 is reserved");
}

TEST(MessageFieldsThreadedDeathTest, BoltEmitOfReservedTagDies) {
  EXPECT_DEATH(EmitReservedTag(), "tag 4294967295 is reserved");
}

}  // namespace
}  // namespace engine
}  // namespace pkgstream
