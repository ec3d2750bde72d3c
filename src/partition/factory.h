// Copyright 2026 The pkgstream Authors.
// Technique registry: names every strategy in the evaluation and builds
// configured Partitioner instances from a plain description. The experiment
// harness and the benches go through this factory so each table row maps to
// one Technique value.

#ifndef PKGSTREAM_PARTITION_FACTORY_H_
#define PKGSTREAM_PARTITION_FACTORY_H_

#include <optional>
#include <string>

#include "common/result.h"
#include "partition/partitioner.h"
#include "stats/frequency.h"

namespace pkgstream {
namespace partition {

/// \brief Every partitioning strategy in the paper's evaluation, plus the
/// extensions the benches measure: hot-key rebalancing (Sections II-B /
/// VIII) and the heavy-hitter W-/D-Choices schemes. Consistent hashing is
/// not a Technique: ConsistentHashGrouping (partition/consistent_hashing.h)
/// is built directly, and only bench_ablation_rebalance reaches it.
enum class Technique {
  kHashing,      ///< key grouping via a single hash (baseline "H")
  kShuffle,      ///< round-robin shuffle grouping ("SG")
  kRandom,       ///< single uniformly random choice
  kPkgGlobal,    ///< PKG with the global load oracle ("G")
  kPkgLocal,     ///< PKG with local estimation ("L") — the deployable scheme
  kPkgProbing,   ///< PKG with local estimation + periodic probing ("LP")
  kPotcStatic,   ///< two choices without key splitting ("PoTC")
  kOnGreedy,     ///< online greedy, full choice, routing table
  kOffGreedy,    ///< offline LPT on true frequencies (clairvoyant)
  kRebalancing,  ///< KG + periodic hot-key migration (§II-B / §VIII)
  kWChoices,     ///< PKG + all-worker choice for detected heavy hitters
  kDChoices,     ///< PKG + adaptive per-heavy-key d (the sequel's policy)
};

/// \brief Parameters shared by all techniques (plus technique-specific ones).
struct PartitionerConfig {
  Technique technique = Technique::kPkgLocal;
  uint32_t sources = 1;
  uint32_t workers = 2;
  uint64_t seed = 42;

  /// PKG variants: the number of choices d (>= 1).
  uint32_t num_choices = 2;

  /// kPkgProbing: probe period in messages.
  uint64_t probe_period_messages = 100000;

  /// kOffGreedy: the complete key-frequency table of the stream to route.
  /// Required for kOffGreedy, ignored otherwise.
  const stats::FrequencyTable* frequencies = nullptr;

  /// kRebalancing: messages between imbalance checks.
  uint64_t rebalance_period = 10000;
  /// kRebalancing: relative window imbalance that triggers migration.
  double rebalance_threshold = 0.10;

  /// kWChoices / kDChoices: per-source heavy-hitter sketch capacity
  /// (kDChoices raises it to >= workers so detection is guaranteed at the
  /// derived threshold).
  uint32_t sketch_capacity = 256;
  /// kWChoices: heavy threshold as a multiple of 1/workers. kDChoices: a
  /// multiplier on its derived threshold num_choices/workers — the Section
  /// IV wall where num_choices stop sufficing.
  double heavy_threshold_factor = 1.0;
  /// kWChoices / kDChoices: detection warm-up — no key is treated as heavy
  /// before this many messages from a source (fresh estimates are noise).
  /// Benches replaying short streams lower it so the warm-up transient
  /// (heavy keys still on the 2-choice path) does not dominate the tail.
  uint64_t heavy_min_messages = 1000;
  /// kDChoices: cap on per-heavy-key candidates; 0 = no cap (a key may
  /// escalate all the way to the all-workers W-Choices path).
  uint32_t head_choices = 0;
  /// kDChoices: balance slack of the epsilon-derived policy (> 0) — a
  /// heavy key of share p gets ceil(p*W/eps) candidates, keeping any
  /// single worker's total share within (1+eps)/W.
  double head_epsilon = 0.05;
};

/// \brief Display name used in tables ("PKG", "Hashing", ...).
std::string TechniqueName(Technique technique);

/// \brief Parses a technique name (the inverse of TechniqueName, also
/// accepting the paper's aliases: "H", "KG", "SG", "G", "L", "LP").
Result<Technique> ParseTechnique(const std::string& name);

/// \brief Builds a configured partitioner; validates the config.
Result<PartitionerPtr> MakePartitioner(const PartitionerConfig& config);

/// \brief Builds `replicas` independent partitioners from one config —
/// one per upstream source instance. Element 0 is exactly what
/// MakePartitioner returns; the rest are Clone()s of it (identical
/// configuration and hash family, private state). ThreadedRuntime routes
/// every upstream instance through its own replica so the hot path takes
/// no lock and load-estimator state is genuinely per-source.
Result<std::vector<PartitionerPtr>> MakePartitionerReplicas(
    const PartitionerConfig& config, uint32_t replicas);

}  // namespace partition
}  // namespace pkgstream

#endif  // PKGSTREAM_PARTITION_FACTORY_H_
