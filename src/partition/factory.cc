// Copyright 2026 The pkgstream Authors.

#include "partition/factory.h"

#include <algorithm>
#include <memory>

#include "partition/greedy.h"
#include "partition/heavy_hitter_pkg.h"
#include "partition/key_grouping.h"
#include "partition/load_estimator.h"
#include "partition/pkg.h"
#include "partition/potc_static.h"
#include "partition/rebalancing.h"
#include "partition/shuffle_grouping.h"

namespace pkgstream {
namespace partition {

std::string TechniqueName(Technique technique) {
  switch (technique) {
    case Technique::kHashing:
      return "Hashing";
    case Technique::kShuffle:
      return "SG";
    case Technique::kRandom:
      return "Random";
    case Technique::kPkgGlobal:
      return "PKG-G";
    case Technique::kPkgLocal:
      return "PKG-L";
    case Technique::kPkgProbing:
      return "PKG-LP";
    case Technique::kPotcStatic:
      return "PoTC";
    case Technique::kOnGreedy:
      return "On-Greedy";
    case Technique::kOffGreedy:
      return "Off-Greedy";
    case Technique::kRebalancing:
      return "KG+rebalance";
    case Technique::kWChoices:
      return "W-Choices";
    case Technique::kDChoices:
      return "D-Choices";
  }
  return "?";
}

Result<Technique> ParseTechnique(const std::string& name) {
  if (name == "Hashing" || name == "H" || name == "KG") {
    return Technique::kHashing;
  }
  if (name == "SG" || name == "Shuffle") return Technique::kShuffle;
  if (name == "Random") return Technique::kRandom;
  if (name == "PKG-G" || name == "G") return Technique::kPkgGlobal;
  if (name == "PKG-L" || name == "L" || name == "PKG") {
    return Technique::kPkgLocal;
  }
  if (name == "PKG-LP" || name == "LP") return Technique::kPkgProbing;
  if (name == "PoTC") return Technique::kPotcStatic;
  if (name == "On-Greedy" || name == "OnGreedy") return Technique::kOnGreedy;
  if (name == "Off-Greedy" || name == "OffGreedy") {
    return Technique::kOffGreedy;
  }
  if (name == "KG+rebalance" || name == "Rebalance") {
    return Technique::kRebalancing;
  }
  if (name == "W-Choices" || name == "WChoices") {
    return Technique::kWChoices;
  }
  if (name == "D-Choices" || name == "DChoices") {
    return Technique::kDChoices;
  }
  return Status::NotFound("unknown technique: " + name);
}

Result<PartitionerPtr> MakePartitioner(const PartitionerConfig& config) {
  if (config.sources < 1) {
    return Status::InvalidArgument("sources must be >= 1");
  }
  if (config.workers < 1) {
    return Status::InvalidArgument("workers must be >= 1");
  }
  switch (config.technique) {
    case Technique::kHashing:
      return PartitionerPtr(std::make_unique<KeyGrouping>(
          config.sources, config.workers, config.seed));
    case Technique::kShuffle:
      return PartitionerPtr(std::make_unique<ShuffleGrouping>(
          config.sources, config.workers, config.seed));
    case Technique::kRandom:
      return PartitionerPtr(std::make_unique<RandomGrouping>(
          config.sources, config.workers, config.seed));
    case Technique::kPkgGlobal:
    case Technique::kPkgLocal:
    case Technique::kPkgProbing: {
      if (config.num_choices < 1) {
        return Status::InvalidArgument("num_choices must be >= 1");
      }
      LoadEstimatorPtr estimator;
      if (config.technique == Technique::kPkgGlobal) {
        estimator = std::make_unique<GlobalLoadEstimator>(config.sources,
                                                          config.workers);
      } else if (config.technique == Technique::kPkgLocal) {
        estimator = std::make_unique<LocalLoadEstimator>(config.sources,
                                                         config.workers);
      } else {
        if (config.probe_period_messages < 1) {
          return Status::InvalidArgument("probe period must be >= 1");
        }
        estimator = std::make_unique<ProbingLoadEstimator>(
            config.sources, config.workers, config.probe_period_messages);
      }
      PkgOptions options;
      options.num_choices = config.num_choices;
      options.hash_seed = config.seed;
      return PartitionerPtr(std::make_unique<PartialKeyGrouping>(
          config.sources, config.workers, std::move(estimator), options));
    }
    case Technique::kPotcStatic:
      return PartitionerPtr(std::make_unique<StaticPoTC>(
          config.sources, config.workers, config.seed,
          config.num_choices < 2 ? 2 : config.num_choices));
    case Technique::kOnGreedy:
      return PartitionerPtr(
          std::make_unique<OnlineGreedy>(config.sources, config.workers));
    case Technique::kOffGreedy:
      if (config.frequencies == nullptr) {
        return Status::FailedPrecondition(
            "Off-Greedy needs the stream's frequency table");
      }
      return PartitionerPtr(std::make_unique<OfflineGreedy>(
          config.sources, config.workers, *config.frequencies, config.seed));
    case Technique::kRebalancing: {
      if (config.rebalance_period < 1) {
        return Status::InvalidArgument("rebalance period must be >= 1");
      }
      RebalancingOptions options;
      options.check_period = config.rebalance_period;
      options.imbalance_threshold = config.rebalance_threshold;
      options.hash_seed = config.seed;
      return PartitionerPtr(std::make_unique<RebalancingKeyGrouping>(
          config.sources, config.workers, options));
    }
    case Technique::kWChoices: {
      if (config.sketch_capacity < 1) {
        return Status::InvalidArgument("sketch capacity must be >= 1");
      }
      HeavyHitterPkgOptions options;
      options.base_choices = config.num_choices < 1 ? 2 : config.num_choices;
      options.head_choices = 0;  // all workers for the head keys
      options.sketch_capacity = config.sketch_capacity;
      options.threshold_factor = config.heavy_threshold_factor;
      options.min_messages = config.heavy_min_messages;
      options.hash_seed = config.seed;
      return PartitionerPtr(std::make_unique<HeavyHitterAwarePkg>(
          config.sources, config.workers,
          std::make_unique<LocalLoadEstimator>(config.sources,
                                               config.workers),
          options));
    }
    case Technique::kDChoices: {
      if (config.sketch_capacity < 1) {
        return Status::InvalidArgument("sketch capacity must be >= 1");
      }
      if (config.head_choices > config.workers) {
        return Status::InvalidArgument("head choices must be <= workers");
      }
      if (config.head_epsilon <= 0.0) {
        return Status::InvalidArgument("head epsilon must be > 0");
      }
      HeavyHitterPkgOptions options;
      options.base_choices = config.num_choices < 1 ? 2 : config.num_choices;
      options.head_choices = config.head_choices;
      options.adaptive_head = true;
      options.epsilon = config.head_epsilon;
      // Threshold derived from the worker count: a key outgrows its
      // base_choices candidates once its share crosses base_choices/W
      // (the Section IV wall), scaled by the configured factor.
      options.threshold_factor =
          config.heavy_threshold_factor *
          static_cast<double>(options.base_choices);
      // Detection guarantee: SPACESAVING tracks every key with share >
      // 1/capacity, so capacity >= workers covers everything at or above
      // the ~base_choices/workers threshold with room to spare.
      options.sketch_capacity =
          std::max<size_t>(config.sketch_capacity, config.workers);
      options.min_messages = config.heavy_min_messages;
      options.hash_seed = config.seed;
      return PartitionerPtr(std::make_unique<HeavyHitterAwarePkg>(
          config.sources, config.workers,
          std::make_unique<LocalLoadEstimator>(config.sources,
                                               config.workers),
          options));
    }
  }
  return Status::Internal("unreachable technique");
}

Result<std::vector<PartitionerPtr>> MakePartitionerReplicas(
    const PartitionerConfig& config, uint32_t replicas) {
  if (replicas < 1) {
    return Status::InvalidArgument("replicas must be >= 1");
  }
  PKGSTREAM_ASSIGN_OR_RETURN(auto base, MakePartitioner(config));
  std::vector<PartitionerPtr> out;
  out.reserve(replicas);
  out.push_back(std::move(base));
  while (out.size() < replicas) out.push_back(out.front()->Clone());
  return out;
}

}  // namespace partition
}  // namespace pkgstream
