// Copyright 2026 The pkgstream Authors.
// The RouteBatch bit-equivalence contract (partitioner.h): for every
// technique, RouteBatch(source, keys, out, n) must yield exactly the
// workers n scalar Route calls would, and leave the partitioner in the
// identical state — batch and scalar consumption are interchangeable
// mid-stream. The suite sweeps every factory technique, and
// ConsistentHashGrouping with d ring replicas, x d in {2, 4} x 3 seeds, drives one instance scalar and a twin through interleaved batch
// sizes (1, 7, 64 and a ragged tail) with a rotating source, and then
// checks post-batch state agreement both directly (more scalar routing on
// the originals) and through Clone() (more routing on the clones).

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "common/hash.h"
#include "partition/consistent_hashing.h"
#include "partition/factory.h"
#include "stats/frequency.h"

namespace pkgstream {
namespace partition {
namespace {

constexpr uint32_t kSources = 3;
constexpr uint32_t kWorkers = 8;
constexpr size_t kMessages = 4096;
constexpr size_t kStateProbeMessages = 512;

/// Deterministic skewed key sequence (decorrelated from the hash family).
Key TestKey(uint64_t seed, size_t i) {
  const uint64_t r = Fmix64(seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
  // Square the uniform variate: a cheap head-heavy skew so techniques
  // with per-key state (PoTC tables, sketches) see repeats.
  const uint64_t u = r % 1024;
  return (u * u) / 1024;
}

struct SweepCase {
  Technique technique;
  uint32_t num_choices;
  uint64_t seed;
  uint32_t workers = kWorkers;
  /// Sweep ConsistentHashGrouping with `num_choices` ring replicas instead
  /// of `technique`: the class is built directly, not through the factory.
  bool consistent_hash = false;
};

std::vector<SweepCase> AllCases() {
  const Technique techniques[] = {
      Technique::kHashing,    Technique::kShuffle,
      Technique::kRandom,     Technique::kPkgGlobal,
      Technique::kPkgLocal,   Technique::kPkgProbing,
      Technique::kPotcStatic, Technique::kOnGreedy,
      Technique::kOffGreedy,  Technique::kRebalancing,
      Technique::kWChoices,   Technique::kDChoices,
  };
  std::vector<SweepCase> cases;
  for (Technique t : techniques) {
    for (uint32_t d : {2u, 4u}) {
      for (uint64_t seed : {1ull, 7ull, 42ull}) {
        cases.push_back(SweepCase{t, d, seed});
      }
    }
  }
  for (uint32_t d : {2u, 4u}) {
    for (uint64_t seed : {1ull, 7ull, 42ull}) {
      cases.push_back(SweepCase{Technique::kHashing, d, seed, kWorkers,
                                /*consistent_hash=*/true});
    }
  }
  return cases;
}

/// Wide-worker sweep: with >= 256 buckets the PKG d=2 fused loop takes the
/// conflict-checked SIMD argmin (pkg.cc) on capable hosts, and the skewed
/// key stream plants plenty of intra-group candidate collisions — so both
/// the vector-committed groups and the scalar conflict fallback are pinned
/// against the sequential protocol here. The other techniques ride along
/// to cover wide-bucket BucketBatch dispatch generally.
std::vector<SweepCase> WideWorkerCases() {
  const Technique techniques[] = {
      Technique::kHashing,    Technique::kPkgGlobal, Technique::kPkgLocal,
      Technique::kPkgProbing, Technique::kPotcStatic,
      Technique::kWChoices,   Technique::kDChoices,
  };
  std::vector<SweepCase> cases;
  for (Technique t : techniques) {
    for (uint32_t workers : {256u, 1024u}) {
      for (uint64_t seed : {7ull, 42ull}) {
        cases.push_back(SweepCase{t, 2u, seed, workers});
      }
    }
  }
  return cases;
}

std::string CaseName(const testing::TestParamInfo<SweepCase>& info) {
  std::string name = info.param.consistent_hash
                         ? "CH"
                         : TechniqueName(info.param.technique);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  name += "_d" + std::to_string(info.param.num_choices) + "_seed" +
          std::to_string(info.param.seed);
  if (info.param.workers != kWorkers) {
    name += "_w" + std::to_string(info.param.workers);
  }
  return name;
}

class RouteBatchEquivalenceTest : public testing::TestWithParam<SweepCase> {
 protected:
  PartitionerConfig Config() const {
    PartitionerConfig config;
    config.technique = GetParam().technique;
    config.sources = kSources;
    config.workers = GetParam().workers;
    config.seed = GetParam().seed;
    config.num_choices = GetParam().num_choices;
    config.probe_period_messages = 300;  // several probes inside the run
    config.rebalance_period = 500;
    config.frequencies = &frequencies_;
    return config;
  }

  void SetUp() override {
    for (size_t i = 0; i < kMessages; ++i) {
      frequencies_.Add(TestKey(GetParam().seed, i));
    }
  }

  Result<PartitionerPtr> MakeSubject() const {
    if (GetParam().consistent_hash) {
      ConsistentHashOptions options;
      options.replicas = GetParam().num_choices;
      options.seed = GetParam().seed;
      return PartitionerPtr(std::make_unique<ConsistentHashGrouping>(
          kSources, GetParam().workers, options));
    }
    return MakePartitioner(Config());
  }

  stats::FrequencyTable frequencies_;
};

TEST_P(RouteBatchEquivalenceTest, InterleavedBatchesMatchScalarAndCloneAgrees) {
  auto scalar = MakeSubject();
  auto batch = MakeSubject();
  ASSERT_TRUE(scalar.ok()) << scalar.status();
  ASSERT_TRUE(batch.ok()) << batch.status();

  const uint64_t seed = GetParam().seed;
  const size_t chunk_sizes[] = {1, 7, 64, 29};  // 29: ragged, non-power-of-2
  std::vector<Key> key_buf;
  std::vector<WorkerId> batch_out;
  size_t pos = 0;
  size_t chunk = 0;
  SourceId source = 0;
  while (pos < kMessages) {
    const size_t len =
        std::min(chunk_sizes[chunk % 4], kMessages - pos);
    key_buf.resize(len);
    batch_out.assign(len, kInvalidWorker);
    for (size_t j = 0; j < len; ++j) key_buf[j] = TestKey(seed, pos + j);
    (*batch)->RouteBatch(source, key_buf.data(), batch_out.data(), len);
    for (size_t j = 0; j < len; ++j) {
      const WorkerId expected = (*scalar)->Route(source, key_buf[j]);
      ASSERT_EQ(batch_out[j], expected)
          << "diverged at message " << pos + j << " (chunk " << chunk
          << ", source " << source << ")";
    }
    pos += len;
    ++chunk;
    source = static_cast<SourceId>(chunk % kSources);
  }

  // State agreement, via Clone(): the clones continue scalar and must walk
  // in lockstep.
  auto scalar_clone = (*scalar)->Clone();
  auto batch_clone = (*batch)->Clone();
  for (size_t i = 0; i < kStateProbeMessages; ++i) {
    const Key key = TestKey(seed ^ 0xabcdef, i);
    const SourceId s = static_cast<SourceId>(i % kSources);
    ASSERT_EQ(batch_clone->Route(s, key), scalar_clone->Route(s, key))
        << "clone state diverged at probe message " << i;
  }

  // ... and directly on the originals (Clone() of RandomGrouping reseeds,
  // so the originals are the authoritative state probe there).
  for (size_t i = 0; i < kStateProbeMessages; ++i) {
    const Key key = TestKey(seed ^ 0x123457, i);
    const SourceId s = static_cast<SourceId>(i % kSources);
    ASSERT_EQ((*batch)->Route(s, key), (*scalar)->Route(s, key))
        << "post-batch state diverged at probe message " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, RouteBatchEquivalenceTest,
                         testing::ValuesIn(AllCases()), CaseName);

INSTANTIATE_TEST_SUITE_P(WideWorkers, RouteBatchEquivalenceTest,
                         testing::ValuesIn(WideWorkerCases()), CaseName);

}  // namespace
}  // namespace partition
}  // namespace pkgstream
