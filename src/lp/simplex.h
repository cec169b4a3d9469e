#ifndef TOPKDUP_LP_SIMPLEX_H_
#define TOPKDUP_LP_SIMPLEX_H_

#include <utility>
#include <vector>

#include "common/status.h"

namespace topkdup::lp {

/// One <= constraint: sum of terms (variable index, coefficient) <= rhs.
/// rhs must be >= 0 so that the all-slack basis is feasible.
struct Constraint {
  std::vector<std::pair<int, double>> terms;
  double rhs = 0.0;
};

struct LpResult {
  std::vector<double> x;
  double objective = 0.0;
  int iterations = 0;
};

/// Maximizes objective . x subject to the given <= constraints and x >= 0
/// by primal simplex on a dense tableau (Dantzig pricing with a Bland
/// fallback against cycling). Intended for the moderate-size LPs of the
/// correlation-clustering relaxation; returns ResourceExhausted when the
/// tableau would exceed 200M doubles and Internal if 200k pivots do not
/// reach the optimum.
/// The feasible region is always bounded in our use (every variable is
/// boxed), so unboundedness is reported as Internal too.
StatusOr<LpResult> SolveLp(int num_vars, const std::vector<double>& objective,
                           const std::vector<Constraint>& constraints);

}  // namespace topkdup::lp

#endif  // TOPKDUP_LP_SIMPLEX_H_
