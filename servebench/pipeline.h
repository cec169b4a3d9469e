#ifndef SERVEBENCH_PIPELINE_H_
#define SERVEBENCH_PIPELINE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dedup/pruned_dedup.h"
#include "predicates/index_cache.h"
#include "record/record.h"
#include "topk/online.h"
#include "topk/rank_query.h"
#include "topk/topk_query.h"

namespace servebench {

/// Registry counters read around every traced layer call.
enum CounterId : int {
  kCollapsePairEvals,
  kLowerBoundEdges,
  kLowerBoundCpnEvals,
  kPrunePairEvals,
  kPruneGroupsExamined,
  kPruneGroupsPruned,
  kPostingsDecoded,
  kCandidates,
  kBlocksDecoded,
  kBlocksSkipped,
  kIndexCacheHits,
  kIndexCacheMisses,
  kCellsFilled,
  kPairsScored,
  kNumCounters,
};

/// Wall seconds and counter deltas accumulated per stage name
/// ("dedup.l1.collapse", "segment.topk_dp", ...) across traced queries.
struct StageTotals {
  double seconds = 0.0;
  std::array<uint64_t, kNumCounters> counters{};
};

struct Ledger {
  std::map<std::string, StageTotals> stages;
  /// Groups handed to the final stages, summed over queries.
  uint64_t groups_out = 0;
  int queries = 0;
  /// Composed (traced) and plain (untraced) wall seconds over the same
  /// queries, for the attribution and overhead figures.
  double traced_seconds = 0.0;
  double untraced_seconds = 0.0;

  double StageSeconds() const;
  uint64_t CounterTotal(CounterId id) const;
};

/// TopKCountQuery composed from the layers' public functions in pipeline
/// order (Collapse, EstimateLowerBound, PruneGroups per level, then
/// BuildGroupPairScores, GreedyEmbedding, SegmentScorer, TopKSegmentation
/// and answer assembly), each call timed into `ledger`. Uses the options'
/// k, r, prune_passes, embedding_alpha, band, max_thresholds and scoring.
topkdup::topk::TopKCountResult ComposeCount(
    const topkdup::record::Dataset& data,
    const std::vector<topkdup::dedup::PredicateLevel>& levels,
    const topkdup::topk::PairScoreFn& scorer,
    const topkdup::topk::TopKCountOptions& options,
    topkdup::predicates::IndexCache* cache, Ledger* ledger);

/// TopKRankQuery composed the same way: the levels with exact bounds, then
/// the §7.1 resolved-group prune ("topk.rank_resolve").
topkdup::topk::TopKRankResult ComposeRank(
    const topkdup::record::Dataset& data,
    const std::vector<topkdup::dedup::PredicateLevel>& levels,
    const topkdup::topk::TopKRankOptions& options,
    topkdup::predicates::IndexCache* cache, Ledger* ledger);

/// OnlineTopK::QuerySnapshot composed: the per-query rebuild (corpus over
/// the representatives plus the stream's factories, "topk.online.rebuild"),
/// the count pipeline, and the mention-id translation.
topkdup::topk::TopKCountResult ComposeOnline(
    const topkdup::topk::OnlineTopK::Snapshot& snapshot,
    const topkdup::topk::TopKCountOptions& options, Ledger* ledger);

}  // namespace servebench

#endif  // SERVEBENCH_PIPELINE_H_
