// Copyright 2026 The pkgstream Authors.
// Distributed heavy hitters (Section VI-C): SPACESAVING summaries built per
// worker on sub-streams and merged downstream. Under PKG each key appears in
// at most 2 summaries, so its merged error carries 2 terms; under shuffle
// grouping it carries up to W (the paper's error-bound comparison).

#ifndef PKGSTREAM_APPS_HEAVY_HITTERS_H_
#define PKGSTREAM_APPS_HEAVY_HITTERS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "stats/space_saving.h"
#include "engine/operator.h"
#include "engine/topology.h"
#include "partition/factory.h"

namespace pkgstream {
namespace apps {

/// SpaceSaving lives in stats/ (it is a sketch, and the partitioner
/// layer uses it too); aliased here for the application-facing API.
using stats::SpaceSaving;
using stats::SpaceSavingEntry;

/// Tags on the heavy-hitter streams.
inline constexpr uint32_t kTagItem = 0;  ///< spout -> worker
/// worker -> merger: `i64` is the summary's SummaryBoard ticket.
inline constexpr uint32_t kTagSummary = 1;

/// \brief Where workers leave their summaries for the merger: messages
/// are plain data, so a worker posts its SPACESAVING snapshot here and
/// sends only the ticket. One board per topology, shared by its worker and
/// merger instances; thread-safe.
class SummaryBoard {
 public:
  /// Stores a copy of `summary`; returns its ticket.
  int64_t Post(const SpaceSaving& summary);

  /// Removes and returns the summary posted under `ticket`. A ticket that
  /// is not on the board is a fatal error.
  SpaceSaving Take(int64_t ticket);

 private:
  std::mutex mu_;
  int64_t next_ticket_ = 0;
  std::unordered_map<int64_t, SpaceSaving> posted_;
};

/// \brief Worker PE: one SPACESAVING summary over its sub-stream.
class HeavyHitterWorker final : public engine::Operator {
 public:
  HeavyHitterWorker(size_t capacity, std::shared_ptr<SummaryBoard> board);

  void Process(const engine::Message& msg, engine::Emitter* out) override;
  void Tick(uint64_t now, engine::Emitter* out) override;
  void Close(engine::Emitter* out) override;
  uint64_t MemoryCounters() const override { return summary_.size(); }

  const SpaceSaving& summary() const { return summary_; }

 private:
  void EmitSummary(engine::Emitter* out);

  SpaceSaving summary_;
  std::shared_ptr<SummaryBoard> board_;
};

/// \brief Merger PE: combines worker summaries (Berinde et al. merge).
class HeavyHitterMerger final : public engine::Operator {
 public:
  HeavyHitterMerger(size_t capacity, std::shared_ptr<SummaryBoard> board);

  void Process(const engine::Message& msg, engine::Emitter* out) override;
  uint64_t MemoryCounters() const override { return merged_.size(); }

  const SpaceSaving& merged() const { return merged_; }

  /// Top-k heavy hitters from the merged summary.
  std::vector<SpaceSavingEntry> TopK(size_t k) const {
    return merged_.TopK(k);
  }

 private:
  SpaceSaving merged_;
  std::shared_ptr<SummaryBoard> board_;
};

/// \brief Assembled heavy-hitter topology.
struct HeavyHitterTopology {
  engine::Topology topology;
  engine::NodeId spout;
  engine::NodeId worker;
  engine::NodeId merger;
};

/// \brief spout --technique--> worker xW --(all to one merger)--> merger.
/// The worker and merger factories share one SummaryBoard.
HeavyHitterTopology MakeHeavyHitterTopology(partition::Technique technique,
                                            uint32_t sources, uint32_t workers,
                                            size_t capacity, uint64_t seed);

}  // namespace apps
}  // namespace pkgstream

#endif  // PKGSTREAM_APPS_HEAVY_HITTERS_H_
