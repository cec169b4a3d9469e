#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "embed/linear_embedding.h"

namespace topkdup::embed {
namespace {

using cluster::PairScores;

bool IsPermutation(const std::vector<size_t>& order, size_t n) {
  if (order.size() != n) return false;
  std::vector<size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < n; ++i) {
    if (sorted[i] != i) return false;
  }
  return true;
}

size_t PositionOf(const std::vector<size_t>& order, size_t item) {
  return std::find(order.begin(), order.end(), item) - order.begin();
}

TEST(GreedyEmbeddingTest, ReturnsPermutation) {
  PairScores s(6);
  s.Set(0, 3, 2.0);
  s.Set(1, 4, 1.0);
  auto order = GreedyEmbedding(s);
  EXPECT_TRUE(IsPermutation(order, 6));
}

TEST(GreedyEmbeddingTest, SimilarItemsAdjacent) {
  // Two tight blocks {0,1,2} and {3,4,5}, repulsion between them.
  PairScores s(6);
  for (size_t block : {size_t{0}, size_t{3}}) {
    for (size_t i = block; i < block + 3; ++i) {
      for (size_t j = i + 1; j < block + 3; ++j) s.Set(i, j, 3.0);
    }
  }
  s.Set(2, 3, -2.0);
  auto order = GreedyEmbedding(s);
  ASSERT_TRUE(IsPermutation(order, 6));
  // Each block must occupy contiguous positions.
  for (size_t block : {size_t{0}, size_t{3}}) {
    std::vector<size_t> positions;
    for (size_t i = block; i < block + 3; ++i) {
      positions.push_back(PositionOf(order, i));
    }
    std::sort(positions.begin(), positions.end());
    EXPECT_EQ(positions[2] - positions[0], 2u)
        << "block at " << block << " not contiguous";
  }
}

TEST(GreedyEmbeddingTest, EmptyAndSingle) {
  PairScores s0(0);
  EXPECT_TRUE(GreedyEmbedding(s0).empty());
  PairScores s1(1);
  EXPECT_EQ(GreedyEmbedding(s1), (std::vector<size_t>{0}));
}

TEST(GreedyEmbeddingTest, SeedsByWeightWhenDisconnected) {
  PairScores s(3);  // No pairs at all.
  std::vector<double> weights = {1.0, 9.0, 4.0};
  auto order = GreedyEmbedding(s, weights);
  EXPECT_EQ(order[0], 1u);  // Heaviest first.
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 0u);
}

TEST(ArrangementCostTest, AdjacentBeatsSpread) {
  PairScores s(4);
  s.Set(0, 1, 5.0);
  const double adjacent = ArrangementCost({0, 1, 2, 3}, s);
  const double spread = ArrangementCost({0, 2, 3, 1}, s);
  EXPECT_LT(adjacent, spread);
  EXPECT_DOUBLE_EQ(adjacent, 5.0);
  EXPECT_DOUBLE_EQ(spread, 15.0);
}

TEST(GreedyEmbeddingTest, BeatsRandomOrderOnBlockData) {
  Rng rng(77);
  const size_t n = 30;
  PairScores s(n);
  // Ten blocks of three with strong internal similarity.
  for (size_t b = 0; b < n; b += 3) {
    s.Set(b, b + 1, 4.0);
    s.Set(b + 1, b + 2, 4.0);
    s.Set(b, b + 2, 4.0);
  }
  auto greedy = GreedyEmbedding(s);
  std::vector<size_t> random_order(n);
  std::iota(random_order.begin(), random_order.end(), size_t{0});
  rng.Shuffle(&random_order);
  EXPECT_LE(ArrangementCost(greedy, s), ArrangementCost(random_order, s));
}

}  // namespace
}  // namespace topkdup::embed
