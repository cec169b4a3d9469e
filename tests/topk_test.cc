#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

#include "common/deadline.h"
#include "common/metrics.h"
#include "datagen/citation_gen.h"
#include "predicates/citation.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "sim/similarity.h"
#include "text/tokenize.h"
#include "topk/pair_scoring.h"
#include "topk/rank_query.h"
#include "topk/topk_query.h"

namespace topkdup::topk {
namespace {

/// Hand-crafted dataset: four entities with known mention counts.
///   A: 6 mentions of "maria gonzalez" (2 variants)
///   B: 4 mentions of "wei zhang" (2 variants)
///   C: 2 mentions of "otto becker"
///   D: 1 mention of "ivan petrov"
record::Dataset HandData() {
  record::Dataset data{record::Schema({"name"})};
  auto add = [&](const char* name, int64_t entity, int times) {
    for (int i = 0; i < times; ++i) {
      record::Record r;
      r.fields = {name};
      r.entity_id = entity;
      data.Add(r);
    }
  };
  add("maria gonzalez", 0, 4);
  add("maria gonzales", 0, 2);
  add("wei zhang", 1, 3);
  add("wei zhangg", 1, 1);
  add("otto becker", 2, 2);
  add("ivan petrov", 3, 1);
  return data;
}

class TopKQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = HandData();
    auto corpus_or = predicates::Corpus::Build(&data_, {});
    ASSERT_TRUE(corpus_or.ok());
    corpus_.emplace(std::move(corpus_or).value());
    sufficient_.emplace(&*corpus_, std::vector<int>{0});
    necessary_.emplace(&*corpus_, 0, 0.6);
  }

  PairScoreFn Scorer() {
    return [this](size_t a, size_t b) {
      const double jw =
          sim::JaroWinkler(text::NormalizeText(data_[a].field(0)),
                           text::NormalizeText(data_[b].field(0)));
      return (jw - 0.85) * 10.0;
    };
  }

  std::vector<dedup::PredicateLevel> Levels() {
    return {{&*sufficient_, &*necessary_}};
  }

  record::Dataset data_;
  std::optional<predicates::Corpus> corpus_;
  std::optional<predicates::ExactFieldsPredicate> sufficient_;
  std::optional<predicates::QGramOverlapPredicate> necessary_;
};

TEST_F(TopKQueryTest, TopTwoAnswerMatchesGroundTruth) {
  TopKCountOptions options;
  options.k = 2;
  options.r = 2;
  auto result_or = TopKCountQuery(data_, Levels(), Scorer(), options);
  ASSERT_TRUE(result_or.ok());
  const TopKCountResult& result = result_or.value();
  ASSERT_FALSE(result.answers.empty());

  const TopKAnswerSet& best = result.answers[0];
  ASSERT_EQ(best.groups.size(), 2u);
  EXPECT_DOUBLE_EQ(best.groups[0].weight, 6.0);
  EXPECT_DOUBLE_EQ(best.groups[1].weight, 4.0);
  // Group members must belong to one entity each.
  for (const AnswerGroup& g : best.groups) {
    const int64_t entity = data_[g.members.front()].entity_id;
    for (size_t m : g.members) EXPECT_EQ(data_[m].entity_id, entity);
  }
  // The two groups are entities 0 and 1.
  EXPECT_EQ(data_[best.groups[0].members.front()].entity_id, 0);
  EXPECT_EQ(data_[best.groups[1].members.front()].entity_id, 1);
}

TEST_F(TopKQueryTest, MultipleAnswersRankedByScore) {
  TopKCountOptions options;
  options.k = 2;
  options.r = 3;
  auto result_or = TopKCountQuery(data_, Levels(), Scorer(), options);
  ASSERT_TRUE(result_or.ok());
  const auto& answers = result_or.value().answers;
  ASSERT_GE(answers.size(), 2u);
  for (size_t i = 1; i < answers.size(); ++i) {
    EXPECT_GE(answers[i - 1].score, answers[i].score);
  }
}

TEST_F(TopKQueryTest, PosteriorsSumBelowOneAndRankWithScores) {
  TopKCountOptions options;
  options.k = 2;
  options.r = 3;
  options.compute_posteriors = true;
  auto result_or = TopKCountQuery(data_, Levels(), Scorer(), options);
  ASSERT_TRUE(result_or.ok());
  const auto& answers = result_or.value().answers;
  ASSERT_GE(answers.size(), 2u);
  double total = 0.0;
  for (const auto& answer : answers) {
    EXPECT_GT(answer.posterior, 0.0);
    EXPECT_LE(answer.posterior, 1.0);
    total += answer.posterior;
  }
  EXPECT_LE(total, 1.0 + 1e-9);
  // The best-scoring answer is also the most probable one here.
  EXPECT_GE(answers[0].posterior, answers[1].posterior);
}

TEST_F(TopKQueryTest, PruningStatsPopulated) {
  TopKCountOptions options;
  options.k = 1;
  auto result_or = TopKCountQuery(data_, Levels(), Scorer(), options);
  ASSERT_TRUE(result_or.ok());
  const auto& levels = result_or.value().pruning.levels;
  ASSERT_EQ(levels.size(), 1u);
  // Exact-match collapse leaves 6 distinct strings.
  EXPECT_EQ(levels[0].n_after_collapse, 6u);
  EXPECT_GE(levels[0].M, 1.0);
  EXPECT_LE(levels[0].n_after_prune, levels[0].n_after_collapse);
}

TEST_F(TopKQueryTest, ErrorsWithoutNecessaryPredicate) {
  TopKCountOptions options;
  auto result = TopKCountQuery(data_, {{&*sufficient_, nullptr}}, Scorer(),
                               options);
  EXPECT_FALSE(result.ok());
}

TEST_F(TopKQueryTest, RankQueryOrdersByWeightWithValidBounds) {
  // The rank query returns *collapsed* groups with upper bounds — it never
  // merges mere-variant groups (that is exactly what it avoids paying for).
  // Exact-match collapse yields fragments A1=4, B1=3, A2=2, C=2, B2=1, D=1.
  TopKRankOptions options;
  options.k = 2;
  auto result_or = TopKRankQuery(data_, Levels(), options);
  ASSERT_TRUE(result_or.ok());
  const TopKRankResult& result = result_or.value();
  ASSERT_GE(result.ranked.size(), 2u);
  EXPECT_DOUBLE_EQ(result.ranked[0].group.weight, 4.0);
  // Its upper bound covers the whole entity A (4 + 2 variant mentions).
  EXPECT_DOUBLE_EQ(result.ranked[0].upper_bound, 6.0);
  EXPECT_DOUBLE_EQ(result.ranked[1].group.weight, 3.0);
  EXPECT_DOUBLE_EQ(result.ranked[1].upper_bound, 4.0);
  for (const RankedGroup& rg : result.ranked) {
    EXPECT_GE(rg.upper_bound, rg.group.weight);
  }
}

TEST_F(TopKQueryTest, CancelledRankQueryBoundsHonorTheCancel) {
  // Cancelled before the call: the pipeline stops at its first level
  // boundary, and the degraded bounds must honor the cancel as well —
  // every bound +inf, with no blocking-index probe paid after it.
  CancelToken cancel;
  cancel.Cancel();
  Deadline deadline;
  deadline.set_cancel_token(&cancel);
  TopKRankOptions options;
  options.k = 2;
  const metrics::Counter* probes =
      metrics::Registry::Global().GetCounter(
          "predicates.blocked_index.candidates");
  const uint64_t probes_before = probes->Value();
  auto result_or =
      TopKRankQuery(data_, Levels(), options, {.deadline = &deadline});
  ASSERT_TRUE(result_or.ok());
  const TopKRankResult& result = result_or.value();
  EXPECT_TRUE(result.degradation.degraded);
  EXPECT_EQ(result.degradation.reason, DeadlineReason::kCancelled);
  ASSERT_EQ(result.ranked.size(), data_.size());  // Nothing collapsed.
  for (const RankedGroup& rg : result.ranked) {
    EXPECT_EQ(rg.upper_bound, std::numeric_limits<double>::infinity());
  }
  EXPECT_EQ(probes->Value(), probes_before);
}

TEST_F(TopKQueryTest, ThresholdedRankQueryPrunesLightIsolatedGroups) {
  ThresholdedRankOptions options;
  options.threshold = 3.5;
  auto result_or = ThresholdedRankQuery(data_, Levels(), options);
  ASSERT_TRUE(result_or.ok());
  const ThresholdedRankResult& result = result_or.value();
  // Collapsed fragments: A1=4 (kept, >= T), A2=2 (kept, bound 6 > T),
  // B1=3 (kept, bound 4 > T), B2=1 (kept, bound 4 > T); C=2 and D=1 can
  // never reach T and must be pruned.
  ASSERT_EQ(result.ranked.size(), 4u);
  EXPECT_DOUBLE_EQ(result.ranked[0].group.weight, 4.0);
  EXPECT_DOUBLE_EQ(result.ranked[0].upper_bound, 6.0);
  for (const RankedGroup& rg : result.ranked) {
    EXPECT_GT(rg.upper_bound, options.threshold);
  }
  // B1's rank relative to A2/B2 is unresolved without exact evaluation.
  EXPECT_FALSE(result.resolved);
}

TEST(RankQueryResolvedTest, ResolvedGroupsEnableExtraPruning) {
  // A(10x "alpha") is isolated; B(6x "board core") and E(2x "board edge")
  // share a word. With K=2: M=6; A and B resolve their ranks, and E —
  // whose only role was B's upper bound — gets the §7.1 extra prune.
  record::Dataset data{record::Schema({"name"})};
  auto add = [&](const char* name, int times) {
    for (int i = 0; i < times; ++i) {
      record::Record r;
      r.fields = {name};
      data.Add(r);
    }
  };
  add("alpha", 10);
  add("board core", 6);
  add("board edge", 2);
  auto corpus_or = predicates::Corpus::Build(&data, {});
  ASSERT_TRUE(corpus_or.ok());
  const predicates::Corpus& corpus = corpus_or.value();
  predicates::ExactFieldsPredicate sufficient(&corpus, {0});
  predicates::CommonWordsPredicate necessary(&corpus, {0}, 1);

  TopKRankOptions options;
  options.k = 2;
  auto result_or =
      TopKRankQuery(data, {{&sufficient, &necessary}}, options);
  ASSERT_TRUE(result_or.ok());
  const TopKRankResult& result = result_or.value();
  EXPECT_EQ(result.resolved_pruned, 1u);  // E is gone.
  ASSERT_EQ(result.ranked.size(), 2u);
  EXPECT_DOUBLE_EQ(result.ranked[0].group.weight, 10.0);
  EXPECT_DOUBLE_EQ(result.ranked[1].group.weight, 6.0);
  EXPECT_DOUBLE_EQ(result.ranked[1].upper_bound, 8.0);
}

TEST_F(TopKQueryTest, ThresholdedRejectsBadThreshold) {
  ThresholdedRankOptions options;
  options.threshold = 0.0;
  EXPECT_FALSE(ThresholdedRankQuery(data_, Levels(), options).ok());
}

TEST(TopKEndToEndTest, GeneratedCitationsTopEntitiesRecovered) {
  datagen::CitationGenOptions gen;
  gen.num_records = 2500;
  gen.num_authors = 600;
  gen.seed = 321;
  auto data_or = datagen::GenerateCitations(gen);
  ASSERT_TRUE(data_or.ok());
  const record::Dataset& data = data_or.value();

  auto corpus_or = predicates::Corpus::Build(&data, {});
  ASSERT_TRUE(corpus_or.ok());
  const predicates::Corpus& corpus = corpus_or.value();
  predicates::CitationFields fields;
  predicates::CitationS1 s1(&corpus, fields, 0.75 * corpus.MaxIdf(0));
  predicates::CitationS2 s2(&corpus, fields);
  predicates::QGramOverlapPredicate n1(&corpus, 0, 0.6);
  predicates::QGramOverlapPredicate n2(&corpus, 0, 0.6, true);

  PairScoreFn scorer = [&](size_t a, size_t b) {
    // Initial forms ("s sarawagi" vs "sunita sarawagi") sit near 0.78-0.85
    // Jaro-Winkler, so center the signed score below that band.
    const double jw =
        sim::JaroWinkler(text::NormalizeText(data[a].field(0)),
                         text::NormalizeText(data[b].field(0)));
    return (jw - 0.75) * 5.0;
  };

  TopKCountOptions options;
  options.k = 3;
  options.r = 2;
  auto result_or =
      TopKCountQuery(data, {{&s1, &n1}, {&s2, &n2}}, scorer, options);
  ASSERT_TRUE(result_or.ok());
  const TopKCountResult& result = result_or.value();
  ASSERT_FALSE(result.answers.empty());
  ASSERT_EQ(result.answers[0].groups.size(), 3u);

  // Ground truth top-3 entity weights.
  std::map<int64_t, double> entity_weight;
  for (const auto& r : data.records()) entity_weight[r.entity_id] += r.weight;
  std::vector<double> weights;
  for (const auto& [id, w] : entity_weight) weights.push_back(w);
  std::sort(weights.rbegin(), weights.rend());

  // The recovered group weights should approximate the true top-3 counts
  // (slack for unmerged rare variants or accidental merges; the paper's
  // own accuracy target is agreement with the exact *clustering*, not
  // with hidden ground truth).
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(result.answers[0].groups[i].weight, 0.6 * weights[i])
        << "rank " << i;
    EXPECT_LT(result.answers[0].groups[i].weight, 1.3 * weights[i])
        << "rank " << i;
  }
}

}  // namespace
}  // namespace topkdup::topk
