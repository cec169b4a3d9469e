#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/baselines.h"
#include "cluster/correlation.h"
#include "cluster/exact_partition.h"
#include "cluster/pair_scores.h"
#include "common/rng.h"

namespace topkdup::cluster {
namespace {

// Brute-force optimal correlation score by enumerating set partitions.
double BruteForceBest(const PairScores& scores, Labels* best_labels) {
  const size_t n = scores.item_count();
  Labels labels(n, 0);
  double best = -1e300;
  // Enumerate restricted growth strings.
  std::function<void(size_t, int)> rec = [&](size_t i, int max_label) {
    if (i == n) {
      const double s = CorrelationScore(labels, scores);
      if (s > best) {
        best = s;
        if (best_labels != nullptr) *best_labels = labels;
      }
      return;
    }
    for (int l = 0; l <= max_label + 1; ++l) {
      labels[i] = l;
      rec(i + 1, std::max(max_label, l));
    }
  };
  rec(0, -1);
  return best;
}

TEST(PairScoresTest, SetGetAndDefault) {
  PairScores s(4, -0.5);
  EXPECT_DOUBLE_EQ(s.Get(0, 1), -0.5);
  s.Set(0, 1, 2.0);
  EXPECT_DOUBLE_EQ(s.Get(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(s.Get(1, 0), 2.0);
  EXPECT_TRUE(s.Has(0, 1));
  EXPECT_FALSE(s.Has(0, 2));
  EXPECT_EQ(s.stored_pair_count(), 1u);
  EXPECT_DOUBLE_EQ(s.Get(2, 2), 0.0);
}

TEST(PairScoresTest, OverwriteFixesNegativeCache) {
  PairScores s(3);
  s.Set(0, 1, -2.0);
  EXPECT_DOUBLE_EQ(s.StoredNegativeIncident(0), -2.0);
  s.Set(0, 1, 3.0);
  EXPECT_DOUBLE_EQ(s.StoredNegativeIncident(0), 0.0);
  EXPECT_DOUBLE_EQ(s.Get(0, 1), 3.0);
  s.Set(0, 1, -1.0);
  EXPECT_DOUBLE_EQ(s.StoredNegativeIncident(1), -1.0);
}

TEST(LabelsTest, CanonicalizeAndGroups) {
  Labels raw = {5, 3, 5, 9};
  Labels canon = Canonicalize(raw);
  EXPECT_EQ(canon, (Labels{0, 1, 0, 2}));
  auto groups = LabelsToGroups(raw);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::vector<size_t>{0, 2}));
  Labels back = GroupsToLabels(groups, 4);
  EXPECT_EQ(back, canon);
}

TEST(CorrelationTest, HandScoredExample) {
  // Items 0,1 positive pair (+2); 0,2 negative pair (-1).
  PairScores s(3);
  s.Set(0, 1, 2.0);
  s.Set(0, 2, -1.0);
  // Partition {0,1},{2}: inside + = 2; crossing negatives: (0,2) counted
  // from both sides: GroupScore({0,1}) = 2 - (-1) = 3; GroupScore({2}) =
  // -(-1) = 1. Total 4.
  EXPECT_DOUBLE_EQ(CorrelationScore(Labels{0, 0, 1}, s), 4.0);
  // Everything together: inside positives only = 2.
  EXPECT_DOUBLE_EQ(CorrelationScore(Labels{0, 0, 0}, s), 2.0);
  // All singletons: crossing negative counted twice = 2.
  EXPECT_DOUBLE_EQ(CorrelationScore(Labels{0, 1, 2}, s), 2.0);
}

TEST(TransitiveClosureTest, PositiveEdgesOnly) {
  PairScores s(5);
  s.Set(0, 1, 1.0);
  s.Set(1, 2, 0.5);
  s.Set(3, 4, -1.0);
  Labels labels = TransitiveClosurePositive(s);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_NE(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
}

TEST(GreedyPivotTest, RespectsObviousStructure) {
  PairScores s(4);
  s.Set(0, 1, 5.0);
  s.Set(2, 3, 5.0);
  s.Set(0, 2, -5.0);
  Rng rng(3);
  Labels labels = GreedyPivotBestOf(s, &rng, 5);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[2], labels[3]);
  EXPECT_NE(labels[0], labels[2]);
}

TEST(ExactPartitionTest, MatchesBruteForceOnRandomInstances) {
  Rng rng(99);
  for (int trial = 0; trial < 15; ++trial) {
    const size_t n = 3 + rng.Uniform(5);  // 3..7 items.
    PairScores s(n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (rng.Bernoulli(0.7)) {
          s.Set(i, j, (rng.NextDouble() - 0.5) * 4.0);
        }
      }
    }
    auto exact = ExactPartition(s);
    ASSERT_TRUE(exact.ok());
    const double brute = BruteForceBest(s, nullptr);
    EXPECT_NEAR(exact.value().score, brute, 1e-9) << "n=" << n;
    // The labels it returns must actually achieve the reported score.
    EXPECT_NEAR(CorrelationScore(exact.value().labels, s),
                exact.value().score, 1e-9);
  }
}

TEST(ExactPartitionTest, RespectsDefaultScore) {
  // Unstored pairs carry a repulsion of -1; stored positives attract.
  PairScores s(3, -1.0);
  s.Set(0, 1, 3.0);
  auto exact = ExactPartition(s);
  ASSERT_TRUE(exact.ok());
  Labels brute_labels;
  const double brute = BruteForceBest(s, &brute_labels);
  EXPECT_NEAR(exact.value().score, brute, 1e-9);
  // 0,1 together; 2 alone.
  EXPECT_EQ(exact.value().labels[0], exact.value().labels[1]);
  EXPECT_NE(exact.value().labels[0], exact.value().labels[2]);
}

TEST(ExactPartitionTest, RejectsLargeInputs) {
  PairScores s(30);
  EXPECT_FALSE(ExactPartition(s).ok());
}

TEST(ComponentsTest, StoredPairsLinkRegardlessOfSign) {
  PairScores s(6);
  s.Set(0, 1, 1.0);
  s.Set(1, 2, -1.0);
  s.Set(4, 5, 0.5);
  auto comps = ScoreComponents(s);
  ASSERT_EQ(comps.size(), 3u);  // {0,1,2}, {3}, {4,5}.
  EXPECT_EQ(comps[0].size(), 3u);
  EXPECT_EQ(comps[1].size(), 1u);
  EXPECT_EQ(comps[2].size(), 2u);
}

// Property: the exact partition never scores below the heuristics.
class ExactDominatesTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactDominatesTest, ExactAtLeastHeuristics) {
  Rng rng(500 + GetParam());
  const size_t n = 4 + rng.Uniform(6);
  PairScores s(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.6)) s.Set(i, j, (rng.NextDouble() - 0.4) * 3.0);
    }
  }
  auto exact = ExactPartition(s);
  ASSERT_TRUE(exact.ok());
  const double tc =
      CorrelationScore(TransitiveClosurePositive(s), s);
  Rng pivot_rng(GetParam());
  const double pivot =
      CorrelationScore(GreedyPivotBestOf(s, &pivot_rng, 3), s);
  EXPECT_GE(exact.value().score, tc - 1e-9);
  EXPECT_GE(exact.value().score, pivot - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactDominatesTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace topkdup::cluster
