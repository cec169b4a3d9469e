#include "lp/simplex.h"

#include <cmath>
#include <limits>

#include "common/strings.h"

namespace topkdup::lp {

namespace {

constexpr int kMaxIterations = 200000;
constexpr double kEpsilon = 1e-9;
/// Refuse problems whose dense tableau would exceed this many doubles.
constexpr size_t kMaxTableauCells = 200u * 1000u * 1000u;

}  // namespace

StatusOr<LpResult> SolveLp(int num_vars,
                           const std::vector<double>& objective,
                           const std::vector<Constraint>& constraints) {
  if (num_vars <= 0) {
    return Status::InvalidArgument("SolveLp: num_vars must be positive");
  }
  if (objective.size() != static_cast<size_t>(num_vars)) {
    return Status::InvalidArgument("SolveLp: objective size mismatch");
  }
  const size_t m = constraints.size();
  const size_t n = static_cast<size_t>(num_vars);
  const size_t width = n + m + 1;  // Structural vars, slacks, rhs.
  if ((m + 1) * width > kMaxTableauCells) {
    return Status::ResourceExhausted(
        StrFormat("SolveLp: tableau %zux%zu too large", m + 1, width));
  }

  // Row 0..m-1: constraints; row m: objective (negated reduced costs).
  std::vector<std::vector<double>> tab(m + 1, std::vector<double>(width, 0.0));
  for (size_t r = 0; r < m; ++r) {
    if (constraints[r].rhs < 0.0) {
      return Status::InvalidArgument(
          "SolveLp: rhs must be >= 0 (all-slack basis)");
    }
    for (const auto& [v, coeff] : constraints[r].terms) {
      if (v < 0 || v >= num_vars) {
        return Status::InvalidArgument("SolveLp: variable out of range");
      }
      tab[r][v] += coeff;
    }
    tab[r][n + r] = 1.0;  // Slack.
    tab[r][width - 1] = constraints[r].rhs;
  }
  for (size_t v = 0; v < n; ++v) tab[m][v] = -objective[v];

  std::vector<size_t> basis(m);
  for (size_t r = 0; r < m; ++r) basis[r] = n + r;

  const double eps = kEpsilon;
  int iterations = 0;
  int degenerate_streak = 0;
  while (true) {
    if (++iterations > kMaxIterations) {
      return Status::Internal("SolveLp: iteration cap exceeded");
    }
    // Pricing: Dantzig (most negative reduced cost); Bland (lowest index)
    // after a long degenerate streak to guarantee termination.
    size_t pivot_col = width;  // Sentinel.
    if (degenerate_streak < 64) {
      double most_negative = -eps;
      for (size_t c = 0; c + 1 < width; ++c) {
        if (tab[m][c] < most_negative) {
          most_negative = tab[m][c];
          pivot_col = c;
        }
      }
    } else {
      for (size_t c = 0; c + 1 < width; ++c) {
        if (tab[m][c] < -eps) {
          pivot_col = c;
          break;
        }
      }
    }
    if (pivot_col == width) break;  // Optimal.

    // Ratio test (Bland ties: lowest basis index).
    size_t pivot_row = m;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (size_t r = 0; r < m; ++r) {
      if (tab[r][pivot_col] > eps) {
        const double ratio = tab[r][width - 1] / tab[r][pivot_col];
        if (ratio < best_ratio - eps ||
            (ratio < best_ratio + eps &&
             (pivot_row == m || basis[r] < basis[pivot_row]))) {
          best_ratio = ratio;
          pivot_row = r;
        }
      }
    }
    if (pivot_row == m) {
      return Status::Internal("SolveLp: unbounded direction encountered");
    }
    degenerate_streak = best_ratio < eps ? degenerate_streak + 1 : 0;

    // Pivot.
    const double pivot = tab[pivot_row][pivot_col];
    for (size_t c = 0; c < width; ++c) tab[pivot_row][c] /= pivot;
    for (size_t r = 0; r <= m; ++r) {
      if (r == pivot_row) continue;
      const double factor = tab[r][pivot_col];
      if (std::fabs(factor) < eps) continue;
      for (size_t c = 0; c < width; ++c) {
        tab[r][c] -= factor * tab[pivot_row][c];
      }
    }
    basis[pivot_row] = pivot_col;
  }

  LpResult result;
  result.x.assign(n, 0.0);
  for (size_t r = 0; r < m; ++r) {
    if (basis[r] < n) result.x[basis[r]] = tab[r][width - 1];
  }
  result.objective = 0.0;
  for (size_t v = 0; v < n; ++v) {
    result.objective += objective[v] * result.x[v];
  }
  result.iterations = iterations;
  return result;
}

}  // namespace topkdup::lp
