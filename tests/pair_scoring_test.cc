#include <gtest/gtest.h>

#include "dedup/group.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "topk/pair_scoring.h"

namespace topkdup::topk {
namespace {

class PairScoringTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = record::Dataset{record::Schema({"name"})};
    auto add = [&](const char* name, double weight) {
      record::Record r;
      r.fields = {name};
      r.weight = weight;
      data_.Add(r);
    };
    add("alpha beta", 2.0);   // 0
    add("alpha gamma", 3.0);  // 1: shares "alpha" with 0.
    add("delta", 5.0);        // 2: isolated.
    auto corpus_or = predicates::Corpus::Build(&data_, {});
    ASSERT_TRUE(corpus_or.ok());
    corpus_.emplace(std::move(corpus_or).value());
    necessary_.emplace(&*corpus_, std::vector<int>{0}, 1);
    groups_ = dedup::MakeSingletonGroups(data_);
  }

  record::Dataset data_;
  std::optional<predicates::Corpus> corpus_;
  std::optional<predicates::CommonWordsPredicate> necessary_;
  std::vector<dedup::Group> groups_;
};

TEST_F(PairScoringTest, OnlyNecessaryTruePairsAreScored) {
  int scorer_calls = 0;
  PairScoreFn scorer = [&](size_t, size_t) {
    ++scorer_calls;
    return 1.5;
  };
  cluster::PairScores scores =
      BuildGroupPairScores(groups_, *necessary_, scorer);
  EXPECT_EQ(scorer_calls, 1);  // Only the alpha pair.
  EXPECT_EQ(scores.stored_pair_count(), 1u);
  EXPECT_DOUBLE_EQ(scores.default_score(), kDefaultPairScore);
  // Groups are sorted by weight desc: delta(5)=0, alpha gamma(3)=1,
  // alpha beta(2)=2; the stored pair links positions 1 and 2.
  EXPECT_DOUBLE_EQ(scores.Get(1, 2), 1.5);
  EXPECT_DOUBLE_EQ(scores.Get(0, 1), kDefaultPairScore);
}

}  // namespace
}  // namespace topkdup::topk
