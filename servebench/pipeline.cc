#include "pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/metrics.h"
#include "dedup/collapse.h"
#include "dedup/lower_bound.h"
#include "dedup/prune.h"
#include "embed/linear_embedding.h"
#include "predicates/blocked_index.h"
#include "segment/segment_scorer.h"
#include "segment/topk_dp.h"
#include "topk/pair_scoring.h"
#include "workloads.h"

namespace servebench {
namespace {

namespace dedup = topkdup::dedup;
namespace topk = topkdup::topk;
namespace segment = topkdup::segment;
using Clock = std::chrono::steady_clock;

const std::array<topkdup::metrics::Counter*, kNumCounters>& Counters() {
  static const std::array<topkdup::metrics::Counter*, kNumCounters> counters =
      [] {
        auto& registry = topkdup::metrics::Registry::Global();
        std::array<topkdup::metrics::Counter*, kNumCounters> c{};
        c[kCollapsePairEvals] = registry.GetCounter("dedup.collapse.pair_evals");
        c[kLowerBoundEdges] =
            registry.GetCounter("dedup.lower_bound.edges_examined");
        c[kLowerBoundCpnEvals] =
            registry.GetCounter("dedup.lower_bound.cpn_evals");
        c[kPrunePairEvals] = registry.GetCounter("dedup.prune.pair_evals");
        c[kPruneGroupsExamined] =
            registry.GetCounter("dedup.prune.groups_examined");
        c[kPruneGroupsPruned] = registry.GetCounter("dedup.prune.groups_pruned");
        c[kPostingsDecoded] =
            registry.GetCounter("predicates.blocked_index.postings_decoded");
        c[kCandidates] =
            registry.GetCounter("predicates.blocked_index.candidates");
        c[kBlocksDecoded] =
            registry.GetCounter("predicates.blocked_index.blocks_decoded");
        c[kBlocksSkipped] =
            registry.GetCounter("predicates.blocked_index.blocks_skipped");
        c[kIndexCacheHits] = registry.GetCounter("predicates.index_cache.hits");
        c[kIndexCacheMisses] =
            registry.GetCounter("predicates.index_cache.misses");
        c[kCellsFilled] = registry.GetCounter("segment.scorer.cells_filled");
        c[kPairsScored] = registry.GetCounter("topk.pair_scores.pairs_scored");
        return c;
      }();
  return counters;
}

std::array<uint64_t, kNumCounters> ReadCounters() {
  std::array<uint64_t, kNumCounters> values{};
  for (int i = 0; i < kNumCounters; ++i) values[i] = Counters()[i]->Value();
  return values;
}

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs one layer call, charging its wall time and counter deltas to
/// `stage`.
template <typename F>
decltype(auto) Timed(Ledger* ledger, const std::string& stage, F&& call) {
  struct Charge {
    Ledger* ledger;
    const std::string& stage;
    std::array<uint64_t, kNumCounters> before = ReadCounters();
    Clock::time_point start = Clock::now();
    ~Charge() {
      StageTotals& totals = ledger->stages[stage];
      totals.seconds += Since(start);
      const std::array<uint64_t, kNumCounters> after = ReadCounters();
      for (int i = 0; i < kNumCounters; ++i) {
        totals.counters[i] += after[i] - before[i];
      }
    }
  } charge{ledger, stage};
  return call();
}

struct LevelsOutcome {
  std::vector<dedup::Group> groups;
  std::vector<double> upper_bounds;
  double last_M = 0.0;
  bool exact = false;
};

/// PrunedDedupFromGroups without a deadline: per level collapse, lower
/// bound and prune; stops once exactly k groups remain.
LevelsOutcome RunLevels(std::vector<dedup::Group> groups,
                        const std::vector<dedup::PredicateLevel>& levels,
                        int k, int prune_passes, bool exact_bounds,
                        topkdup::predicates::IndexCache* cache,
                        Ledger* ledger) {
  LevelsOutcome out;
  out.upper_bounds.assign(groups.size(), 0.0);
  for (size_t i = 0; i < levels.size(); ++i) {
    const dedup::PredicateLevel& level = levels[i];
    const std::string prefix = "dedup.l" + std::to_string(i + 1) + ".";
    if (level.sufficient != nullptr) {
      groups = Timed(ledger, prefix + "collapse", [&] {
        return dedup::Collapse(groups, *level.sufficient, nullptr, nullptr,
                               cache);
      });
    }
    if (level.necessary != nullptr) {
      dedup::LowerBoundOptions lb_options;
      lb_options.index_cache = cache;
      const dedup::LowerBoundResult lb =
          Timed(ledger, prefix + "lower_bound", [&] {
            return dedup::EstimateLowerBound(groups, *level.necessary, k,
                                             lb_options);
          });
      out.last_M = lb.M;
      dedup::PruneOptions prune_options;
      prune_options.passes = prune_passes;
      prune_options.index_cache = cache;
      dedup::PruneResult pruned = Timed(ledger, prefix + "prune", [&] {
        return dedup::PruneGroups(groups, *level.necessary, lb.M,
                                  prune_options, exact_bounds);
      });
      groups = std::move(pruned.groups);
      out.upper_bounds = std::move(pruned.upper_bounds);
    } else {
      out.last_M = groups.empty() ? 0.0 : groups.back().weight;
      out.upper_bounds.assign(groups.size(), 0.0);
    }
    if (groups.size() == static_cast<size_t>(k)) {
      out.exact = true;
      break;
    }
  }
  out.groups = std::move(groups);
  ledger->groups_out += out.groups.size();
  return out;
}

topk::AnswerGroup MergeSpan(const segment::Span& span,
                            const std::vector<size_t>& order,
                            const std::vector<dedup::Group>& groups) {
  topk::AnswerGroup out;
  double best_weight = -1.0;
  for (size_t p = span.begin; p <= span.end; ++p) {
    const dedup::Group& g = groups[order[p]];
    out.weight += g.weight;
    out.members.insert(out.members.end(), g.members.begin(), g.members.end());
    if (g.weight > best_weight) {
      best_weight = g.weight;
      out.representative = g.rep;
    }
  }
  return out;
}

/// The DP answers turned into R distinct answer sets, as TopKCountQuery
/// returns them (weight-sorted groups, exact count intervals, answers
/// deduplicated on their member lists).
std::vector<topk::TopKAnswerSet> AssembleAnswers(
    const std::vector<segment::TopKAnswer>& dp_answers,
    const std::vector<size_t>& order, const std::vector<dedup::Group>& groups,
    int r) {
  std::vector<topk::TopKAnswerSet> answers;
  std::unordered_set<std::string> seen;
  for (const segment::TopKAnswer& dp_answer : dp_answers) {
    std::vector<std::pair<topk::AnswerGroup, segment::Span>> tagged;
    tagged.reserve(dp_answer.answer.size());
    for (const segment::Span& span : dp_answer.answer) {
      tagged.emplace_back(MergeSpan(span, order, groups), span);
    }
    std::sort(tagged.begin(), tagged.end(),
              [](const std::pair<topk::AnswerGroup, segment::Span>& a,
                 const std::pair<topk::AnswerGroup, segment::Span>& b) {
                return a.first.weight > b.first.weight;
              });
    topk::TopKAnswerSet answer;
    answer.score = dp_answer.score;
    std::string signature;
    for (auto& [group, span] : tagged) {
      group.count_lower = group.weight;
      group.count_upper = group.weight;
      std::vector<size_t> members = group.members;
      std::sort(members.begin(), members.end());
      for (size_t m : members) {
        signature += std::to_string(m);
        signature += ',';
      }
      signature += '|';
      answer.groups.push_back(std::move(group));
    }
    if (seen.insert(signature).second &&
        answers.size() < static_cast<size_t>(r)) {
      answers.push_back(std::move(answer));
    }
  }
  return answers;
}

[[noreturn]] void Die(const char* what, const topkdup::Status& status) {
  std::fprintf(stderr, "traced %s: %s\n", what, status.ToString().c_str());
  std::exit(3);
}

topk::TopKCountResult CountPipeline(
    const topkdup::record::Dataset& data,
    const std::vector<dedup::PredicateLevel>& levels,
    const topk::PairScoreFn& scorer, const topk::TopKCountOptions& options,
    topkdup::predicates::IndexCache* cache, Ledger* ledger) {
  LevelsOutcome pruned =
      RunLevels(dedup::MakeSingletonGroups(data), levels, options.k,
                options.prune_passes, /*exact_bounds=*/false, cache, ledger);
  const std::vector<dedup::Group>& groups = pruned.groups;
  topk::TopKCountResult result;
  if (pruned.exact) {
    Timed(ledger, "topk.answer_assembly", [&] {
      topk::TopKAnswerSet answer;
      for (const dedup::Group& g : groups) {
        answer.groups.push_back(
            {g.weight, g.rep, g.members, g.weight, g.weight});
      }
      result.answers.push_back(std::move(answer));
      result.exact_from_pruning = true;
    });
    return result;
  }
  if (groups.size() < static_cast<size_t>(options.k)) {
    Die("count", topkdup::Status::FailedPrecondition(
                     "fewer candidate groups than K"));
  }
  const topkdup::predicates::PairPredicate& necessary =
      *levels.back().necessary;
  topk::PairScoringOptions scoring = options.scoring;
  scoring.index_cache = cache;
  const topkdup::cluster::PairScores scores =
      Timed(ledger, "topk.pair_scoring", [&] {
        return topk::BuildGroupPairScores(groups, necessary, scorer, scoring);
      });
  std::vector<double> weights(groups.size());
  for (size_t i = 0; i < groups.size(); ++i) weights[i] = groups[i].weight;
  topkdup::embed::GreedyEmbeddingOptions embed_options;
  embed_options.alpha = options.embedding_alpha;
  const std::vector<size_t> order = Timed(ledger, "embed.greedy", [&] {
    return topkdup::embed::GreedyEmbedding(scores, weights, embed_options);
  });
  std::optional<segment::SegmentScorer> seg_scorer;
  Timed(ledger, "segment.scorer", [&] {
    seg_scorer.emplace(scores, order, options.band,
                       segment::SegmentScorer::Objective::kSumPositive);
  });
  segment::TopKDpOptions dp_options;
  dp_options.k = options.k;
  dp_options.r = options.r * 3;
  dp_options.band = options.band;
  dp_options.max_thresholds = options.max_thresholds;
  auto dp_or = Timed(ledger, "segment.topk_dp", [&] {
    return segment::TopKSegmentation(*seg_scorer, order, weights, dp_options);
  });
  if (!dp_or.ok()) Die("segmentation", dp_or.status());
  result.answers = Timed(ledger, "topk.answer_assembly", [&] {
    return AssembleAnswers(dp_or.value(), order, groups, options.r);
  });
  return result;
}

/// §7.1: marks groups whose rank is resolved and drops the neighbors they
/// make redundant (mirrors TopKRankQuery's resolution step).
topk::TopKRankResult ResolveRanks(const LevelsOutcome& pruned,
                                  const topkdup::predicates::PairPredicate&
                                      necessary,
                                  topkdup::predicates::IndexCache* cache) {
  const std::vector<dedup::Group>& groups = pruned.groups;
  const std::vector<double>& ub = pruned.upper_bounds;
  const double M = pruned.last_M;
  const size_t n = groups.size();
  std::vector<size_t> reps(n);
  for (size_t i = 0; i < n; ++i) reps[i] = groups[i].rep;
  std::vector<std::vector<uint32_t>> adj(n);
  {
    const topkdup::predicates::IndexHandle index(cache, necessary, reps);
    index->ForEachCandidatePair([&](size_t p, size_t q) {
      if (necessary.Evaluate(reps[p], reps[q])) {
        adj[p].push_back(static_cast<uint32_t>(q));
        adj[q].push_back(static_cast<uint32_t>(p));
      }
    });
  }
  std::vector<bool> is_neighbor(n, false);
  std::vector<bool> resolved(n, false);
  for (size_t j = 0; j < n; ++j) {
    for (uint32_t g : adj[j]) is_neighbor[g] = true;
    bool ok = true;
    for (size_t g = 0; g < n && ok; ++g) {
      if (g == j) continue;
      if (is_neighbor[g]) {
        if (ub[g] - groups[j].weight >= M) ok = false;
      } else if (!(groups[j].weight >= ub[g] || ub[j] <= groups[g].weight)) {
        ok = false;
      }
    }
    resolved[j] = ok;
    for (uint32_t g : adj[j]) is_neighbor[g] = false;
  }
  topk::TopKRankResult result;
  for (size_t g = 0; g < n; ++g) {
    bool keep = true;
    if (groups[g].weight < M) {
      bool adjacent_to_resolved = false;
      bool adjacent_to_live_unresolved = false;
      for (uint32_t i : adj[g]) {
        if (resolved[i]) {
          adjacent_to_resolved = true;
        } else if (ub[i] >= M) {
          adjacent_to_live_unresolved = true;
        }
      }
      keep = !(adjacent_to_resolved && !adjacent_to_live_unresolved);
    }
    if (keep) {
      result.ranked.push_back({groups[g], ub[g]});
    } else {
      ++result.resolved_pruned;
    }
  }
  return result;
}

}  // namespace

double Ledger::StageSeconds() const {
  double total = 0.0;
  for (const auto& [name, totals] : stages) total += totals.seconds;
  return total;
}

uint64_t Ledger::CounterTotal(CounterId id) const {
  uint64_t total = 0;
  for (const auto& [name, totals] : stages) total += totals.counters[id];
  return total;
}

topk::TopKCountResult ComposeCount(
    const topkdup::record::Dataset& data,
    const std::vector<dedup::PredicateLevel>& levels,
    const topk::PairScoreFn& scorer, const topk::TopKCountOptions& options,
    topkdup::predicates::IndexCache* cache, Ledger* ledger) {
  const Clock::time_point start = Clock::now();
  topk::TopKCountResult result =
      CountPipeline(data, levels, scorer, options, cache, ledger);
  ledger->traced_seconds += Since(start);
  ++ledger->queries;
  return result;
}

topk::TopKRankResult ComposeRank(
    const topkdup::record::Dataset& data,
    const std::vector<dedup::PredicateLevel>& levels,
    const topk::TopKRankOptions& options,
    topkdup::predicates::IndexCache* cache, Ledger* ledger) {
  const Clock::time_point start = Clock::now();
  const LevelsOutcome pruned =
      RunLevels(dedup::MakeSingletonGroups(data), levels, options.k,
                options.prune_passes, /*exact_bounds=*/true, cache, ledger);
  topk::TopKRankResult result = Timed(ledger, "topk.rank_resolve", [&] {
    return ResolveRanks(pruned, *levels.back().necessary, cache);
  });
  ledger->traced_seconds += Since(start);
  ++ledger->queries;
  return result;
}

topk::TopKCountResult ComposeOnline(
    const topk::OnlineTopK::Snapshot& snapshot,
    const topk::TopKCountOptions& options, Ledger* ledger) {
  const Clock::time_point start = Clock::now();
  std::optional<topkdup::predicates::Corpus> corpus;
  std::unique_ptr<topkdup::predicates::PairPredicate> necessary;
  topk::PairScoreFn scorer;
  Timed(ledger, "topk.online.rebuild", [&] {
    auto corpus_or = topkdup::predicates::Corpus::Build(&snapshot.reps, {});
    if (!corpus_or.ok()) Die("rebuild", corpus_or.status());
    corpus.emplace(std::move(corpus_or).value());
    necessary = StreamNecessary(*corpus);
    scorer = StreamScorer(snapshot.reps);
  });
  topk::TopKCountResult result = CountPipeline(
      snapshot.reps, {{nullptr, necessary.get()}}, scorer, options,
      /*cache=*/nullptr, ledger);
  Timed(ledger, "topk.answer_assembly", [&] {
    for (topk::TopKAnswerSet& answer : result.answers) {
      for (topk::AnswerGroup& group : answer.groups) {
        std::vector<size_t> mention_ids;
        for (size_t rep_id : group.members) {
          const std::vector<size_t>& members =
              snapshot.group_members[rep_id];
          mention_ids.insert(mention_ids.end(), members.begin(),
                             members.end());
        }
        group.members = std::move(mention_ids);
        size_t best = group.members.front();
        for (size_t m : group.members) {
          if (snapshot.mention_weights[m] > snapshot.mention_weights[best]) {
            best = m;
          }
        }
        group.representative = best;
      }
    }
  });
  ledger->traced_seconds += Since(start);
  ++ledger->queries;
  return result;
}

}  // namespace servebench
