#include "topk/pair_scoring.h"

#include <cstdint>
#include <tuple>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "predicates/blocked_index.h"
#include "predicates/index_cache.h"

namespace topkdup::topk {

cluster::PairScores BuildGroupPairScores(
    const std::vector<dedup::Group>& groups,
    const predicates::PairPredicate& necessary, const PairScoreFn& scorer,
    const PairScoringOptions& options, const QueryContext& ctx) {
  const Deadline* deadline = ctx.deadline;
  const size_t n = groups.size();
  trace::Span span("topk.pair_scores");
  span.AddArg("groups", static_cast<int64_t>(n));
  auto& registry = metrics::Registry::Global();
  static metrics::Counter* pairs_enumerated =
      registry.GetCounter("topk.pair_scores.pairs_enumerated");
  static metrics::Counter* pair_evals =
      registry.GetCounter("topk.pair_scores.pair_evals");
  static metrics::Counter* pairs_scored =
      registry.GetCounter("topk.pair_scores.pairs_scored");
  std::vector<size_t> reps(n);
  for (size_t i = 0; i < n; ++i) reps[i] = groups[i].rep;

  cluster::PairScores scores(n, kDefaultPairScore);
  const predicates::IndexHandle index_handle(options.index_cache, necessary,
                                             reps);
  const predicates::BlockedIndex& index = index_handle.get();
  // Predicate evaluation + scoring dominate; fan them out per shard into
  // (p, q, score) triples and fold into the sparse matrix serially. The
  // shard layout is thread-count independent, so the insertion order —
  // and with it the stored structure — is reproducible at any level.
  using Scored = std::tuple<uint32_t, uint32_t, double>;
  const std::vector<Scored> triples = ParallelReduce<std::vector<Scored>>(
      0, n, DefaultGrain(n),
      [&](size_t b, size_t e, std::vector<Scored>* out) {
        if (deadline != nullptr && deadline->ExpiredUrgent()) return;
        predicates::BlockedIndex::QueryScratch scratch;
        size_t enumerated = 0;
        size_t scored = 0;
        index.ForEachCandidatePairInRange(b, e, &scratch,
                                          [&](size_t p, size_t q) {
          ++enumerated;
          if (!necessary.Evaluate(reps[p], reps[q])) return;
          ++scored;
          out->emplace_back(static_cast<uint32_t>(p),
                            static_cast<uint32_t>(q),
                            scorer(reps[p], reps[q]));
        });
        pairs_enumerated->Add(enumerated);
        pair_evals->Add(enumerated);  // Every enumerated pair runs N_L.
        pairs_scored->Add(scored);
        if (deadline != nullptr) deadline->ChargeWork(enumerated);
      },
      [](std::vector<Scored>* total, std::vector<Scored>&& shard) {
        total->insert(total->end(), shard.begin(), shard.end());
      });
  for (const auto& [p, q, s] : triples) scores.Set(p, q, s);
  span.AddArg("scored", static_cast<int64_t>(triples.size()));
  return scores;
}

}  // namespace topkdup::topk
