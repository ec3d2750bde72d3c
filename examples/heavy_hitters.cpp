// Copyright 2026 The pkgstream Authors.
// Section VI-C scenario: distributed heavy hitters with SPACESAVING.
//
// Streams a drifting cashtag-like workload through the worker/merger
// topology under PKG and reports the discovered top-k against exact
// ground truth, plus the error-bound comparison between PKG (2 summaries
// per key) and shuffle grouping (up to W summaries per key).
//
//   ./examples/heavy_hitters [--messages=300000] [--workers=8]

#include <iostream>

#include "apps/heavy_hitters.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/table.h"
#include "engine/logical_runtime.h"
#include "stats/frequency.h"
#include "workload/dataset.h"

using namespace pkgstream;

namespace {

struct HhOutcome {
  std::vector<apps::SpaceSavingEntry> found;
  uint64_t worst_error = 0;
  double worker_imbalance = 0;
};

HhOutcome RunOnce(partition::Technique technique, uint64_t messages,
                  uint32_t workers, uint64_t seed,
                  stats::FrequencyTable* exact) {
  apps::HeavyHitterTopology hh = apps::MakeHeavyHitterTopology(
      technique, /*sources=*/2, workers, /*capacity=*/256, seed);
  auto rt = engine::LogicalRuntime::Create(&hh.topology);
  PKGSTREAM_CHECK_OK(rt.status());

  // The cashtag preset: drifting skew, like real ticker streams.
  auto stream = workload::MakeKeyStream(
      workload::GetDataset(workload::DatasetId::kCT), 1.0, seed);
  PKGSTREAM_CHECK_OK(stream.status());
  for (uint64_t i = 0; i < messages; ++i) {
    engine::Message m;
    m.key = (*stream)->Next();
    m.tag = apps::kTagItem;
    if (exact) exact->Add(m.key);
    (*rt)->Inject(hh.spout, static_cast<SourceId>(i % 2), m);
  }
  (*rt)->Finish();

  HhOutcome out;
  auto* merger =
      static_cast<apps::HeavyHitterMerger*>((*rt)->GetOperator(hh.merger, 0));
  out.found = merger->TopK(10);
  for (const auto& e : out.found) {
    out.worst_error = std::max(out.worst_error, e.error);
  }
  out.worker_imbalance = (*rt)->Metrics()[hh.worker.index].imbalance;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  PKGSTREAM_CHECK_OK(Flags::Parse(argc, argv, &flags));
  const uint64_t messages =
      flags.GetIntInRange("messages", 300000, 1, 1000000000);
  const auto workers =
      static_cast<uint32_t>(flags.GetIntInRange("workers", 8, 1, 4096));
  const uint64_t seed = flags.GetIntInRange("seed", 42, 0, kMaxIntFlag);

  std::cout << "distributed heavy hitters on a drifting cashtag stream ("
            << FormatWithCommas(messages) << " messages, " << workers
            << " summarizers, SPACESAVING capacity 256)\n\n";

  stats::FrequencyTable exact;
  auto pkg = RunOnce(partition::Technique::kPkgLocal, messages, workers, seed,
                     &exact);
  auto sg = RunOnce(partition::Technique::kShuffle, messages, workers, seed,
                    nullptr);

  auto truth = exact.TopK(10);
  Table table({"rank", "true key", "true count", "PKG estimate",
               "PKG max-overcount"});
  for (size_t i = 0; i < truth.size(); ++i) {
    uint64_t est = 0;
    uint64_t err = 0;
    for (const auto& e : pkg.found) {
      if (e.key == truth[i].first) {
        est = e.count;
        err = e.error;
      }
    }
    table.AddRow({std::to_string(i + 1), "$" + std::to_string(truth[i].first),
                  FormatWithCommas(truth[i].second),
                  est ? FormatWithCommas(est) : "(missed)",
                  std::to_string(err)});
  }
  table.Print(std::cout);

  std::cout << "\nerror / load comparison:\n";
  Table cmp({"technique", "worst top-10 error bound", "worker imbalance"});
  cmp.AddRow({"PKG (<=2 summaries per key)", FormatWithCommas(pkg.worst_error),
              FormatCompact(pkg.worker_imbalance)});
  cmp.AddRow({"SG (up to W summaries per key)",
              FormatWithCommas(sg.worst_error),
              FormatCompact(sg.worker_imbalance)});
  cmp.Print(std::cout);
  std::cout << "\nPKG keeps each key's error to two summary terms (Section\n"
               "VI-C) while balancing the summarizers — SG balances too but\n"
               "spreads each key across all workers.\n";
  return 0;
}
