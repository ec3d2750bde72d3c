// Copyright 2026 The pkgstream Authors.
// Bounded lock-free single-producer / single-consumer ring buffer — the
// queueing substrate of ThreadedRuntime's hot path. A classic Lamport queue
// with cached peer indices (the Rigtorp SPSCQueue idiom): in steady state a
// push or pop touches only the thread's own index plus a cached copy of the
// peer's, so the two threads ping-pong no cache lines until the ring runs
// full or empty. Batch variants amortize even that refresh over many items.
//
// Progress guarantees: TryPush / TryPop are wait-free (a bounded number of
// steps, no CAS loops). Blocking policies (what to do when full or empty)
// are deliberately left to the caller — ThreadedRuntime combines a Backoff
// spin for producers with a parked-consumer wakeup protocol.

#ifndef PKGSTREAM_ENGINE_SPSC_RING_H_
#define PKGSTREAM_ENGINE_SPSC_RING_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <type_traits>

#include "common/bits.h"

namespace pkgstream {
namespace engine {

/// Cache-line size used for padding concurrency-hot data. 64 bytes is the
/// line size of x86-64 and mainstream AArch64 parts; over-padding on exotic
/// hosts costs a little memory, never correctness.
inline constexpr size_t kCacheLineSize = 64;

/// \brief A value alone on its cache line: prevents false sharing between
/// adjacent cells of an array (e.g. per-instance processed counters).
template <typename T>
struct alignas(kCacheLineSize) CacheLinePadded {
  T value{};
};

/// \brief Adaptive busy-wait: a few CPU-relax spins, then scheduler yields,
/// then short sleeps. Yielding early keeps the protocol live on
/// oversubscribed hosts (fewer cores than threads), where pure spinning
/// would starve the peer thread the spinner is waiting on.
class Backoff {
 public:
  void Pause() {
    ++pauses_;
    if (pauses_ <= kRelaxPauses) {
      CpuRelax();
    } else if (pauses_ <= kRelaxPauses + kYieldPauses) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  void Reset() { pauses_ = 0; }

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }

 private:
  static constexpr uint32_t kRelaxPauses = 16;
  static constexpr uint32_t kYieldPauses = 64;
  uint32_t pauses_ = 0;
};

/// \brief Bounded lock-free SPSC ring.
///
/// Exactly one thread may call the producer side (TryPush / TryPushBatch)
/// and exactly one thread the consumer side (TryPop / TryPopBatch).
/// Capacity is rounded up to a power of two so index wrapping is a mask;
/// indices are free-running (unsigned overflow is defined and harmless).
/// Items are plain data: a batch crosses the ring as at most two memcpy
/// segments, one up to the wrap point and one after it.
template <typename T>
class SpscRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "SpscRing copies items with memcpy");

 public:
  /// Usable capacity is the smallest power of two >= max(min_capacity, 1).
  explicit SpscRing(size_t min_capacity)
      : capacity_(static_cast<size_t>(BitCeil(min_capacity ? min_capacity : 1))),
        mask_(capacity_ - 1),
        // lint:allow(hotpath-tokens): the one-time slot allocation at ring
        // construction; push/pop never allocate.
        slots_(new T[capacity_]) {}

  size_t capacity() const { return capacity_; }

  /// Producer: enqueues `item`; returns false when full.
  bool TryPush(const T& item) { return TryPushBatch(&item, 1) == 1; }

  /// Producer: enqueues a prefix of `items[0..n)`; returns how many were
  /// enqueued. One index publication per batch.
  /// Publications are seq_cst stores (release would do for the items
  /// alone) so that a consumer's park handshake — a seq_cst flag store,
  /// then SizeApprox — cannot miss a producer that then missed the flag
  /// (see ThreadedRuntime's ConsumerGate).
  size_t TryPushBatch(const T* items, size_t n) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    size_t free_slots = capacity_ - (tail - head_cache_);
    if (free_slots < n) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free_slots = capacity_ - (tail - head_cache_);
    }
    const size_t count = n < free_slots ? n : free_slots;
    if (count == 0) return 0;
    CopyIn(tail & mask_, items, count);
    tail_.store(tail + count, std::memory_order_seq_cst);
    return count;
  }

  /// Any thread: approximate occupancy from seq_cst loads of both indices.
  /// Exact when producer and consumer are quiescent; under concurrency the
  /// two loads may observe torn progress, so the result is clamped to
  /// [0, capacity()]. For depth reporting and a parking consumer's
  /// re-check — whether to pop, never what: use TryPop to actually take
  /// items. seq_cst puts the re-check and the publications in one total
  /// order.
  size_t SizeApprox() const {
    const size_t tail = tail_.load(std::memory_order_seq_cst);
    const size_t head = head_.load(std::memory_order_seq_cst);
    const size_t diff = tail - head;
    return diff > capacity_ ? capacity_ : diff;
  }

  /// Consumer: dequeues one item; returns false when empty.
  bool TryPop(T* out) { return TryPopBatch(out, 1) == 1; }

  /// Consumer: dequeues up to `max_n` items into `out`; returns the count.
  size_t TryPopBatch(T* out, size_t max_n) {
    const size_t head = head_.load(std::memory_order_relaxed);
    size_t avail = tail_cache_ - head;
    if (avail == 0) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = tail_cache_ - head;
      if (avail == 0) return 0;
    }
    const size_t count = max_n < avail ? max_n : avail;
    CopyOut(head & mask_, out, count);
    head_.store(head + count, std::memory_order_release);
    return count;
  }

 private:
  /// Copies `items[0..n)` into the slots starting at `pos`, wrapping.
  void CopyIn(size_t pos, const T* items, size_t n) {
    const size_t first = n < capacity_ - pos ? n : capacity_ - pos;
    std::memcpy(&slots_[pos], items, first * sizeof(T));
    std::memcpy(&slots_[0], items + first, (n - first) * sizeof(T));
  }

  /// Copies `n` slots starting at `pos`, wrapping, into `out[0..n)`.
  void CopyOut(size_t pos, T* out, size_t n) const {
    const size_t first = n < capacity_ - pos ? n : capacity_ - pos;
    std::memcpy(out, &slots_[pos], first * sizeof(T));
    std::memcpy(out + first, &slots_[0], (n - first) * sizeof(T));
  }

  // Consumer-owned line: pop index plus the cached producer index.
  alignas(kCacheLineSize) std::atomic<size_t> head_{0};
  size_t tail_cache_ = 0;
  // Producer-owned line: push index plus the cached consumer index.
  alignas(kCacheLineSize) std::atomic<size_t> tail_{0};
  size_t head_cache_ = 0;
  // Shared, read-only after construction.
  alignas(kCacheLineSize) const size_t capacity_;
  const size_t mask_;
  const std::unique_ptr<T[]> slots_;
};

}  // namespace engine
}  // namespace pkgstream

#endif  // PKGSTREAM_ENGINE_SPSC_RING_H_
