// Copyright 2026 The pkgstream Authors.

#include "trace.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>

#include "common/json.h"

namespace pkgstream {
namespace pkgbench {

Tracer::Tracer(uint32_t lanes, size_t capacity)
    : epoch_ns_(NowNs()),
      lanes_(lanes, std::vector<Span>(capacity)),
      used_(lanes, 0),
      dropped_(lanes, 0) {}

Tracer::SpanId Tracer::Open(uint32_t lane, const char* name, SpanId parent,
                            uint64_t batch) {
  return Record(lane, name, NowNs(), 0, parent, batch, 0);
}

void Tracer::Close(SpanId id, int64_t value) {
  if (id == kNoSpan) return;
  Span& span = lanes_[LaneOf(id)][IndexOf(id)];
  span.end_ns = NowNs();
  span.value = value;
}

Tracer::SpanId Tracer::Record(uint32_t lane, const char* name,
                              uint64_t start_ns, uint64_t end_ns,
                              SpanId parent, uint64_t batch, int64_t value) {
  const size_t index = used_[lane];
  if (index == lanes_[lane].size()) {
    ++dropped_[lane];
    return kNoSpan;
  }
  lanes_[lane][index] = Span{name, start_ns, end_ns, parent, batch, value};
  ++used_[lane];
  return (static_cast<SpanId>(lane) << 40) | index;
}

uint64_t Tracer::dropped() const {
  uint64_t total = 0;
  for (uint64_t d : dropped_) total += d;
  return total;
}

size_t Tracer::size() const {
  size_t total = 0;
  for (size_t used : used_) total += used;
  return total;
}

std::vector<Tracer::SelfTime> Tracer::SelfTimes() const {
  std::vector<SelfTime> out;
  std::map<std::string, size_t> index;
  for (uint32_t l = 0; l < lanes_.size(); ++l) {
    const std::vector<Span>& spans = lanes_[l];
    const size_t used = used_[l];
    // Child time is subtracted only within a lane: spans on other lanes ran
    // in parallel, so their time is not part of this span's own.
    std::vector<uint64_t> child_ns(used, 0);
    for (size_t i = 0; i < used; ++i) {
      const Span& s = spans[i];
      if (s.parent != kNoSpan && LaneOf(s.parent) == l) {
        child_ns[IndexOf(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < used; ++i) {
      const Span& s = spans[i];
      auto [it, inserted] = index.emplace(s.name, out.size());
      if (inserted) out.push_back(SelfTime{s.name, 0, 0, 0});
      SelfTime& t = out[it->second];
      const uint64_t dur = s.end_ns - s.start_ns;
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
    }
  }
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path,
                                const std::string& metadata) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return Status::IOError("cannot open trace file " + path);
  os << "{\"displayTimeUnit\":\"ns\",\"otherData\":" << metadata
     << ",\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (uint32_t l = 0; l < lanes_.size(); ++l) {
    const std::string thread =
        l == 0 ? "main" : "injector-" + std::to_string(l - 1);
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":\"thread_"
                  "name\",\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",\n", l, thread.c_str());
    os << buf;
    first = false;
    for (size_t i = 0; i < used_[l]; ++i) {
      const Span& s = lanes_[l][i];
      const SpanId id = (static_cast<SpanId>(l) << 40) | i;
      std::snprintf(
          buf, sizeof(buf),
          ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":%s,\"ts\":%.3f,"
          "\"dur\":%.3f,\"args\":{\"id\":%" PRIu64 ",\"parent\":%s,"
          "\"batch\":%" PRIu64 ",\"value\":%" PRId64 "}}",
          l, JsonEscape(s.name).c_str(),
          static_cast<double>(s.start_ns - epoch_ns_) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3, id,
          s.parent == kNoSpan ? "null" : std::to_string(s.parent).c_str(),
          s.batch, s.value);
      os << buf;
    }
  }
  os << "]}\n";
  os.flush();
  if (!os) return Status::IOError("cannot write trace file " + path);
  return Status::OK();
}

}  // namespace pkgbench
}  // namespace pkgstream
