// Copyright 2026 The pkgstream Authors.

#include "apps/heavy_hitters.h"

#include <utility>

#include "common/logging.h"

namespace pkgstream {
namespace apps {

int64_t SummaryBoard::Post(const SpaceSaving& summary) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t ticket = next_ticket_++;
  posted_.emplace(ticket, summary);
  return ticket;
}

SpaceSaving SummaryBoard::Take(int64_t ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = posted_.find(ticket);
  PKGSTREAM_CHECK(it != posted_.end())
      << "summary ticket " << ticket << " is not on the board";
  SpaceSaving summary = std::move(it->second);
  posted_.erase(it);
  return summary;
}

HeavyHitterWorker::HeavyHitterWorker(size_t capacity,
                                     std::shared_ptr<SummaryBoard> board)
    : summary_(capacity), board_(std::move(board)) {}

void HeavyHitterWorker::Process(const engine::Message& msg,
                                engine::Emitter* out) {
  (void)out;
  PKGSTREAM_DCHECK(msg.tag == kTagItem);
  summary_.Add(msg.key);
}

void HeavyHitterWorker::EmitSummary(engine::Emitter* out) {
  if (summary_.processed() == 0) return;
  engine::Message m;
  m.key = 0;  // merger is single-instance; key is irrelevant
  m.i64 = board_->Post(summary_);
  m.tag = kTagSummary;
  out->Emit(m);
}

void HeavyHitterWorker::Tick(uint64_t /*now*/, engine::Emitter* out) {
  // Windowed flush: ship the partial summary and start a fresh window.
  // Merging summaries of disjoint windows is sound (disjoint sub-streams).
  EmitSummary(out);
  summary_ = SpaceSaving(summary_.capacity());
}

void HeavyHitterWorker::Close(engine::Emitter* out) { EmitSummary(out); }

HeavyHitterMerger::HeavyHitterMerger(size_t capacity,
                                     std::shared_ptr<SummaryBoard> board)
    : merged_(capacity), board_(std::move(board)) {}

void HeavyHitterMerger::Process(const engine::Message& msg,
                                engine::Emitter* out) {
  (void)out;
  PKGSTREAM_DCHECK(msg.tag == kTagSummary);
  merged_.Merge(board_->Take(msg.i64));
}

HeavyHitterTopology MakeHeavyHitterTopology(partition::Technique technique,
                                            uint32_t sources, uint32_t workers,
                                            size_t capacity, uint64_t seed) {
  HeavyHitterTopology hh;
  auto board = std::make_shared<SummaryBoard>();
  hh.spout = hh.topology.AddSpout("items", sources);
  hh.worker = hh.topology.AddOperator(
      "summarizer",
      [capacity, board](uint32_t) {
        return std::make_unique<HeavyHitterWorker>(capacity, board);
      },
      workers);
  hh.merger = hh.topology.AddOperator(
      "merger",
      [capacity, workers, board](uint32_t) {
        // The merged summary needs headroom: worker summaries can disagree
        // on which keys matter, so give the merger W x capacity slots (it
        // still reports only the top-k).
        return std::make_unique<HeavyHitterMerger>(capacity * workers, board);
      },
      1);

  partition::PartitionerConfig upstream;
  upstream.technique = technique;
  upstream.seed = seed;
  PKGSTREAM_CHECK_OK(hh.topology.Connect(hh.spout, hh.worker, upstream));
  PKGSTREAM_CHECK_OK(hh.topology.Connect(hh.worker, hh.merger,
                                         partition::Technique::kHashing,
                                         seed + 1));
  return hh;
}

}  // namespace apps
}  // namespace pkgstream
