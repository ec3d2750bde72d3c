// Copyright 2026 The pkgstream Authors.
// Consistent hashing (Karger et al.), the placement substrate the related
// work section points at: "several storage systems use consistent hashing
// to allocate data items to servers ... One could use consistent hashing
// also to select these two replicas, using the replication technique used
// by Chord" (Section VII). This extension implements exactly that:
//
//   * replicas = 1 : plain ring placement — behaves like key grouping with
//     a different (and typically *worse*-balanced) bucket assignment;
//   * replicas = d : the key's candidates are its d distinct successors on
//     the ring, and the message goes to the least loaded of them — PKG's
//     key splitting riding on Chord-style replica selection, which keeps
//     PKG's balance while inheriting the ring's elasticity (adding or
//     removing a worker only remaps neighbouring arcs).
//
// Not a factory Technique: callers construct the class directly, and
// bench_ablation_rebalance (its CH and CH+PKG rows) is the only one.

#ifndef PKGSTREAM_PARTITION_CONSISTENT_HASHING_H_
#define PKGSTREAM_PARTITION_CONSISTENT_HASHING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "partition/partitioner.h"

namespace pkgstream {
namespace partition {

/// \brief Tuning for ConsistentHashGrouping.
struct ConsistentHashOptions {
  /// Virtual nodes per worker; more = smoother arcs.
  uint32_t virtual_nodes = 64;
  /// Distinct successor workers considered per key (1 = plain ring;
  /// 2 = PKG-over-ring).
  uint32_t replicas = 1;
  uint64_t seed = 42;
};

/// \brief Ring-based partitioner with optional least-loaded replica choice.
class ConsistentHashGrouping final : public Partitioner {
 public:
  ConsistentHashGrouping(uint32_t sources, uint32_t workers,
                         ConsistentHashOptions options = {});

  WorkerId Route(SourceId source, Key key) override;
  uint32_t workers() const override { return workers_; }
  uint32_t sources() const override { return sources_; }
  uint32_t MaxWorkersPerKey() const override { return options_.replicas; }
  std::string Name() const override;
  PartitionerPtr Clone() const override {
    return std::make_unique<ConsistentHashGrouping>(*this);
  }

  /// The first `replicas` distinct workers clockwise from the key's point
  /// (exposed for tests and for applications that probe replicas).
  void Successors(Key key, std::vector<WorkerId>* out) const;

  /// Removes a worker's virtual nodes from the ring (elasticity demo):
  /// its arcs fall to the next successors; other placements are untouched.
  /// The departed worker must not be routed to afterwards.
  void RemoveWorker(WorkerId worker);

 private:
  struct Point {
    uint64_t position;
    WorkerId worker;
  };

  uint32_t sources_;
  uint32_t workers_;
  ConsistentHashOptions options_;
  std::vector<Point> ring_;  // sorted by position
  std::vector<uint64_t> loads_;
};

}  // namespace partition
}  // namespace pkgstream

#endif  // PKGSTREAM_PARTITION_CONSISTENT_HASHING_H_
