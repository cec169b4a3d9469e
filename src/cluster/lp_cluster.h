#ifndef TOPKDUP_CLUSTER_LP_CLUSTER_H_
#define TOPKDUP_CLUSTER_LP_CLUSTER_H_

#include "cluster/pair_scores.h"
#include "common/status.h"

namespace topkdup::cluster {

struct LpClusterResult {
  Labels labels;
  /// Optimal value of the relaxation (an upper bound on the best
  /// correlation score up to the constant sum of negative weights).
  double lp_objective = 0.0;
  /// True when the relaxation solved integrally, in which case `labels`
  /// is a provably optimal correlation clustering (paper §5.1: "when the
  /// LP returns integral answers, the solution is guaranteed to be exact").
  bool integral = false;
  int rounds = 0;
  size_t constraints_added = 0;
};

/// Solves the correlation-clustering LP relaxation of paper §5.1
/// (maximize sum P_ij x_ij with triangle consistency x_ij + x_jk - x_ik <= 1
/// and 0 <= x <= 1) by cutting planes: triangle inequalities are added
/// lazily, up to 512 per round and most-violated first, until none are
/// violated (at most 64 rounds). Inputs of more than 48 items are refused
/// with ResourceExhausted: the LP has O(n^2) variables.
///
/// When the final solution is integral, the labels are the exact optimum.
/// Otherwise labels come from thresholding x >= 0.5 followed by transitive
/// closure, and `integral` is false.
StatusOr<LpClusterResult> LpCluster(const PairScores& scores);

}  // namespace topkdup::cluster

#endif  // TOPKDUP_CLUSTER_LP_CLUSTER_H_
