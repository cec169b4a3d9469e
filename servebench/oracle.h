#ifndef SERVEBENCH_ORACLE_H_
#define SERVEBENCH_ORACLE_H_

#include <string>

#include "topk/rank_query.h"
#include "topk/topk_query.h"

namespace servebench {

/// Canonical rendering of everything a count answer claims: per answer its
/// score, and per group the weight, representative, count interval and
/// member ids in stored order. Doubles print as hex floats, so two dumps
/// are equal exactly when the answers are bit-identical.
std::string DumpCount(const topkdup::topk::TopKCountResult& result);

/// Same for a rank answer: every ranked group (representative, weight,
/// upper bound, members) plus the resolved-group prune count.
std::string DumpRank(const topkdup::topk::TopKRankResult& result);

}  // namespace servebench

#endif  // SERVEBENCH_ORACLE_H_
