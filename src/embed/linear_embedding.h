#ifndef TOPKDUP_EMBED_LINEAR_EMBEDDING_H_
#define TOPKDUP_EMBED_LINEAR_EMBEDDING_H_

#include <vector>

#include "cluster/pair_scores.h"
#include "common/query_context.h"

namespace topkdup::embed {

struct GreedyEmbeddingOptions {
  /// Aging factor alpha of paper Eq. (3): positions j far behind the front
  /// contribute alpha^(i-j-1) of their similarity. In (0, 1].
  double alpha = 0.5;
};

/// Greedy linear embedding of paper §5.3.1: repeatedly appends the item
/// maximizing the distance-aged similarity to the already-placed items
/// (Eq. 3). When no remaining item has positive affinity to the placed
/// prefix, the heaviest remaining item (by `weights`, or lowest index when
/// weights is empty) starts a new region. Returns a permutation of 0..n-1.
///
/// Only positive pair scores attract; negative scores are treated as
/// repulsion (they subtract affinity), which keeps likely non-duplicates
/// apart in the ordering.
///
/// `ctx.explain`, when non-null, receives the embedding summary plus
/// sampled placement picks (winning Eq.-3 affinity and the runner-up it
/// beat), keyed by step so the sampled set is deterministic.
std::vector<size_t> GreedyEmbedding(const cluster::PairScores& scores,
                                    const std::vector<double>& weights = {},
                                    const GreedyEmbeddingOptions& options = {},
                                    const QueryContext& ctx = {});

/// The linear-arrangement objective sum_{i<j} |pos_i - pos_j| * max(P_ij, 0)
/// that embeddings try to minimize (paper §5.3.1). Used by tests and the
/// embedding micro bench to score orderings.
double ArrangementCost(const std::vector<size_t>& order,
                       const cluster::PairScores& scores);

}  // namespace topkdup::embed

#endif  // TOPKDUP_EMBED_LINEAR_EMBEDDING_H_
