#ifndef TOPKDUP_DEDUP_COLLAPSE_H_
#define TOPKDUP_DEDUP_COLLAPSE_H_

#include <vector>

#include "common/deadline.h"
#include "dedup/group.h"
#include "obs/explain.h"
#include "predicates/pair_predicate.h"

namespace topkdup::predicates {
class IndexCache;
}  // namespace topkdup::predicates

namespace topkdup::dedup {

/// Collapses `groups` by the transitive closure of the sufficient predicate
/// evaluated on group representatives (paper §4.1). Candidate pairs come
/// from the predicate's blocking signatures, never a Cartesian product.
///
/// The merged group's representative is the representative of its heaviest
/// constituent; weights and member lists are unioned. The result is sorted
/// by decreasing weight.
///
/// The closure is computed shard by shard over a thread-count-independent
/// shard layout, so the evaluated pairs, the charged work and the output
/// are identical at any thread count.
///
/// When `recorder` is non-null it receives the collapse summary plus
/// sampled merge events. Merges are reported from the final set partition
/// (not edge discovery order), so the recorded events are deterministic.
///
/// When `deadline` is non-null it is polled at shard boundaries; on expiry
/// the remaining shards contribute no edges and the function returns the
/// partial closure. An under-collapsed partition is still a valid
/// partition (entities are merely split, never wrongly merged), so every
/// downstream bound stays sound. Predicate evaluations are charged to the
/// deadline as work units.
/// `index_cache`, when non-null, shares the blocking index for the group
/// representatives across calls (resident serving); null builds a
/// call-local index, exactly as before.
std::vector<Group> Collapse(const std::vector<Group>& groups,
                            const predicates::PairPredicate& sufficient,
                            obs::ExplainRecorder* recorder = nullptr,
                            const Deadline* deadline = nullptr,
                            predicates::IndexCache* index_cache = nullptr);

}  // namespace topkdup::dedup

#endif  // TOPKDUP_DEDUP_COLLAPSE_H_
