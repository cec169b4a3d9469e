#ifndef TOPKDUP_DEDUP_STREAMING_COLLAPSE_H_
#define TOPKDUP_DEDUP_STREAMING_COLLAPSE_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dedup/union_find.h"

namespace topkdup::dedup {

/// Incrementally maintains the sufficient-predicate collapse (§4.1) of an
/// append-only mention stream: the transitive closure only grows under
/// insertion, so each new record unions with the matching earlier records
/// that share a blocking-signature token with it — no batch recollapse.
///
/// The caller supplies the blocking signature (token strings) and the
/// exact sufficient decision for a pair of record ids; the class owns the
/// union-find and the token -> earlier-records map.
class StreamingCollapse {
 public:
  using SufficientFn = std::function<bool(size_t, size_t)>;

  /// `sufficient(a, b)` decides the sufficient predicate on record ids,
  /// which the caller maps to its own record storage.
  explicit StreamingCollapse(SufficientFn sufficient);

  /// Registers record `id` (ids must be inserted consecutively from 0)
  /// with the given blocking signature and weight, merging it into any
  /// existing group whose member matches the sufficient predicate. The
  /// predicate runs at most once per distinct earlier record, and never
  /// on a record already in the new record's group. Returns the record's
  /// current group root.
  size_t Insert(const std::vector<std::string>& signature, double weight);

  size_t record_count() const { return weights_.size(); }

  /// Number of groups among the inserted records.
  size_t group_count() const { return uf_.set_count(); }

  /// Materializes the current groups: members per group (ascending), each
  /// with its total weight, sorted by decreasing weight (ties by smallest
  /// member).
  struct GroupView {
    double weight = 0.0;
    std::vector<size_t> members;
  };
  std::vector<GroupView> Groups();

 private:
  SufficientFn sufficient_;
  /// Signature token -> ids of the earlier records carrying it (ascending).
  std::unordered_map<std::string, std::vector<size_t>> postings_;
  UnionFind uf_{0};
  std::vector<double> weights_;  // Per record.
};

}  // namespace topkdup::dedup

#endif  // TOPKDUP_DEDUP_STREAMING_COLLAPSE_H_
