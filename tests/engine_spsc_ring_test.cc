// Copyright 2026 The pkgstream Authors.
// Tests for the lock-free SPSC ring under ThreadedRuntime's mailboxes:
// FIFO order, wrap-around, batch push/pop semantics, and a two-thread
// transfer that the ThreadSanitizer CI job checks for races.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "engine/message.h"
#include "engine/spsc_ring.h"

namespace pkgstream {
namespace engine {
namespace {

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
  EXPECT_EQ(SpscRing<int>(0).capacity(), 1u);  // clamped to >= 1
}

TEST(SpscRingTest, FifoWithWrapAround) {
  SpscRing<int> ring(4);
  int out = 0;
  // Several times around the ring.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(ring.TryPush(round * 3 + i));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.TryPop(&out));
      EXPECT_EQ(out, round * 3 + i);
    }
  }
  EXPECT_FALSE(ring.TryPop(&out));
}

TEST(SpscRingTest, PushFailsWhenFullPopFailsWhenEmpty) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_FALSE(ring.TryPush(3));  // full: item rejected
  int out = 0;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ring.TryPush(3));  // space again
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(ring.TryPop(&out));
}

TEST(SpscRingTest, BatchOpsMovePrefixes) {
  SpscRing<int> ring(4);
  int in[6] = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ring.TryPushBatch(in, 6), 4u);  // only capacity fits
  int out[8] = {};
  EXPECT_EQ(ring.TryPopBatch(out, 2), 2u);  // bounded by max_n
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(ring.TryPopBatch(out, 8), 2u);  // bounded by availability
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[1], 3);
  EXPECT_EQ(ring.TryPopBatch(out, 8), 0u);
}

TEST(SpscRingTest, BatchesStraddlingTheWrapPointCopyBothSegments) {
  // Capacity 8, batches of 5 starting 6 slots in: every push and pop batch
  // of a lap covers slots 6, 7 | 0, 1, 2 — a non-empty memcpy segment on
  // each side of the wrap point. 40-byte Messages make each element span
  // several words. Sequence numbers are the free-running indices, so each
  // element's fields pin where in the stream it sat.
  SpscRing<Message> ring(8);
  Message in[8];
  Message out[8];
  uint64_t pushed = 0;
  uint64_t popped = 0;
  for (uint64_t lap = 0; lap < 6; ++lap) {
    // Advance both indices to slot 6 of this lap.
    for (size_t i = 0; i < 6; ++i) in[i].key = pushed++;
    ASSERT_EQ(ring.TryPushBatch(in, 6), 6u);
    ASSERT_EQ(ring.TryPopBatch(out, 8), 6u);
    for (size_t i = 0; i < 6; ++i) EXPECT_EQ(out[i].key, popped++);
    // The straddling batch: slots 6, 7, then 0, 1, 2.
    for (size_t i = 0; i < 5; ++i) {
      in[i].key = pushed;
      in[i].i64 = -static_cast<int64_t>(pushed);
      in[i].f64 = static_cast<double>(pushed) + 0.5;
      in[i].tag = static_cast<uint32_t>(lap);
      in[i].ts = ~pushed;
      ++pushed;
    }
    ASSERT_EQ(ring.TryPushBatch(in, 5), 5u);
    EXPECT_EQ(ring.SizeApprox(), 5u);
    ASSERT_EQ(ring.TryPopBatch(out, 8), 5u);
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(out[i].key, popped);
      EXPECT_EQ(out[i].i64, -static_cast<int64_t>(popped));
      EXPECT_EQ(out[i].f64, static_cast<double>(popped) + 0.5);
      EXPECT_EQ(out[i].tag, lap);
      EXPECT_EQ(out[i].ts, ~popped);
      ++popped;
    }
    EXPECT_EQ(ring.SizeApprox(), 0u);
    // Bring both indices back to a multiple of the capacity: 11 + 5 = 16,
    // two laps of the 8 slots per loop iteration.
    for (size_t i = 0; i < 5; ++i) in[i].key = pushed++;
    ASSERT_EQ(ring.TryPushBatch(in, 5), 5u);
    ASSERT_EQ(ring.TryPopBatch(out, 8), 5u);
    for (size_t i = 0; i < 5; ++i) EXPECT_EQ(out[i].key, popped++);
  }
  EXPECT_EQ(pushed, 6u * 16u);
  EXPECT_EQ(popped, pushed);
  Message none;
  EXPECT_FALSE(ring.TryPop(&none));
}

TEST(SpscRingTest, SizeApproxTracksOccupancyWhenQuiescent) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.SizeApprox(), 0u);  // empty
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_EQ(ring.SizeApprox(), 1u);
  int in[3] = {2, 3, 4};
  EXPECT_EQ(ring.TryPushBatch(in, 3), 3u);
  EXPECT_EQ(ring.SizeApprox(), 4u);  // full == capacity, never above
  int out = 0;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(ring.SizeApprox(), 3u);
  int buf[4];
  EXPECT_EQ(ring.TryPopBatch(buf, 4), 3u);
  EXPECT_EQ(ring.SizeApprox(), 0u);  // drained again
}

TEST(SpscRingTest, SizeApproxStaysBoundedUnderConcurrency) {
  // The approximate size is read from a third thread while producer and
  // consumer race: every observation must stay within [0, capacity] (the
  // clamp absorbs torn index reads); exactness is not claimed.
  SpscRing<uint64_t> ring(8);
  constexpr uint64_t kCount = 100000;
  std::atomic<bool> done{false};
  std::thread observer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      EXPECT_LE(ring.SizeApprox(), ring.capacity());
    }
  });
  std::thread producer([&] {
    Backoff backoff;
    for (uint64_t i = 0; i < kCount; ++i) {
      while (!ring.TryPush(uint64_t{i})) backoff.Pause();
      backoff.Reset();
    }
  });
  uint64_t popped = 0;
  uint64_t buf[4];
  Backoff backoff;
  while (popped < kCount) {
    const size_t n = ring.TryPopBatch(buf, 4);
    if (n == 0) {
      backoff.Pause();
      continue;
    }
    backoff.Reset();
    popped += n;
  }
  producer.join();
  done.store(true, std::memory_order_relaxed);
  observer.join();
  EXPECT_EQ(ring.SizeApprox(), 0u);
}

TEST(SpscRingTest, TwoThreadTransferPreservesSequence) {
  SpscRing<uint64_t> ring(64);
  constexpr uint64_t kCount = 200000;
  std::thread producer([&] {
    Backoff backoff;
    for (uint64_t i = 0; i < kCount; ++i) {
      while (!ring.TryPush(uint64_t{i})) backoff.Pause();
      backoff.Reset();
    }
  });
  uint64_t expected = 0;
  uint64_t buf[16];
  Backoff backoff;
  while (expected < kCount) {
    const size_t n = ring.TryPopBatch(buf, 16);
    if (n == 0) {
      backoff.Pause();
      continue;
    }
    backoff.Reset();
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(buf[i], expected);
      ++expected;
    }
  }
  producer.join();
}

}  // namespace
}  // namespace engine
}  // namespace pkgstream
