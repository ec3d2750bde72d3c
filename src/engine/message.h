// Copyright 2026 The pkgstream Authors.
// The unit of data flow: a keyed message (the paper's m = <t, k, v>).
//
// A Message is plain data: 40 trivially copyable bytes that runtimes copy
// by value into queues, out-buffers and rings (SpscRing moves them with
// memcpy). Applications that must hand a structured payload downstream
// keep it in app-owned state and send a handle in the scalar fields (see
// apps/heavy_hitters.h's SummaryBoard).

#ifndef PKGSTREAM_ENGINE_MESSAGE_H_
#define PKGSTREAM_ENGINE_MESSAGE_H_

#include <cstdint>
#include <type_traits>

#include "common/types.h"

namespace pkgstream {
namespace engine {

/// Tag reserved for the engine: ThreadedRuntime marks its end-of-stream
/// tokens with it, so a ring slot is just a Message. Applications must
/// never send it; ThreadedRuntime rejects it at inject and emit.
inline constexpr uint32_t kEosTag = 0xFFFFFFFFu;

/// \brief A message flowing along a stream edge.
///
/// The fixed scalar fields cover the counting/classification workloads the
/// paper evaluates.
struct Message {
  Key key = 0;        ///< routing key (word id, feature id, vertex id, ...)
  int64_t i64 = 0;    ///< integer payload: count, class label, ...
  double f64 = 0.0;   ///< real payload: feature value, weight, ...
  uint32_t tag = 0;   ///< application-defined discriminator (not kEosTag)
  StreamTime ts = 0;  ///< logical emission time (set by the runtime)
};

static_assert(std::is_trivially_copyable_v<Message>,
              "messages cross threads as plain data");
static_assert(sizeof(Message) == 40, "one ring slot per message");

}  // namespace engine
}  // namespace pkgstream

#endif  // PKGSTREAM_ENGINE_MESSAGE_H_
