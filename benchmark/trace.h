// Copyright 2026 The pkgstream Authors.
// In-memory span recorder for pkgbench's traced run.
//
// Spans are recorded from the benchmark's own code around each call into a
// layer (Create, every InjectBatch, Finish, inbox-depth samples, probes);
// nothing inside src/ is instrumented. Every recording thread owns one lane,
// a buffer allocated and touched before the run, so recording takes no lock,
// never allocates and never page-faults; a full lane drops further spans and
// counts them. The spans are written as Chrome trace-event JSON at exit
// (open the file in Perfetto or chrome://tracing), and SelfTimes() derives
// each span name's self time: its duration minus the part covered by its
// children on the same lane.

#ifndef PKGSTREAM_BENCHMARK_TRACE_H_
#define PKGSTREAM_BENCHMARK_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace pkgstream {
namespace pkgbench {

/// Monotonic nanoseconds (steady_clock); the time base of every span.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  /// Span handle; kNoSpan when a lane was full (Close ignores it).
  using SpanId = uint64_t;
  static constexpr SpanId kNoSpan = ~static_cast<SpanId>(0);

  struct Span {
    const char* name = nullptr;  ///< static string
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    SpanId parent = kNoSpan;
    uint64_t batch = 0;  ///< per-lane batch sequence number, 0 if none
    int64_t value = 0;   ///< span-specific payload (e.g. inbox depth)
  };

  struct SelfTime {
    std::string name;
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };

  /// `lanes` recording threads, each with room for `capacity` spans.
  Tracer(uint32_t lanes, size_t capacity);

  /// Starts a span on `lane` (only that lane's thread may call this).
  SpanId Open(uint32_t lane, const char* name, SpanId parent = kNoSpan,
              uint64_t batch = 0);
  /// Ends a span opened by the calling lane's thread.
  void Close(SpanId id, int64_t value = 0);
  /// Records a span whose start and end are already known.
  SpanId Record(uint32_t lane, const char* name, uint64_t start_ns,
                uint64_t end_ns, SpanId parent = kNoSpan, uint64_t batch = 0,
                int64_t value = 0);

  uint64_t dropped() const;
  size_t size() const;

  /// Per-name count, total and self time, ordered by first appearance.
  std::vector<SelfTime> SelfTimes() const;

  /// Writes Chrome trace-event JSON ("X" complete events, one tid per lane);
  /// `metadata` is a JSON object text stored under "otherData".
  Status WriteChromeTrace(const std::string& path,
                          const std::string& metadata) const;

 private:
  static uint32_t LaneOf(SpanId id) { return static_cast<uint32_t>(id >> 40); }
  static size_t IndexOf(SpanId id) {
    return static_cast<size_t>(id & ((SpanId{1} << 40) - 1));
  }

  uint64_t epoch_ns_;
  std::vector<std::vector<Span>> lanes_;  ///< fixed size: the capacity
  std::vector<size_t> used_;              ///< recorded spans per lane
  std::vector<uint64_t> dropped_;
};

}  // namespace pkgbench
}  // namespace pkgstream

#endif  // PKGSTREAM_BENCHMARK_TRACE_H_
