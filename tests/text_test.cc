#include <gtest/gtest.h>

#include <algorithm>

#include "text/tokenize.h"
#include "text/vocab.h"

namespace topkdup::text {
namespace {

TEST(TokenizeTest, WordTokensLowercaseAndSplit) {
  auto words = WordTokens("M. Stonebraker-Jr  III");
  ASSERT_EQ(words.size(), 4u);
  EXPECT_EQ(words[0], "m");
  EXPECT_EQ(words[1], "stonebraker");
  EXPECT_EQ(words[2], "jr");
  EXPECT_EQ(words[3], "iii");
}

TEST(TokenizeTest, WordTokensEmpty) {
  EXPECT_TRUE(WordTokens("").empty());
  EXPECT_TRUE(WordTokens(" .,;- ").empty());
}

TEST(TokenizeTest, QGramsPadded) {
  auto grams = QGrams("ab", 3);
  // padded: "##ab##" -> ##a, #ab, ab#, b##
  ASSERT_EQ(grams.size(), 4u);
  EXPECT_EQ(grams[0], "##a");
  EXPECT_EQ(grams[1], "#ab");
  EXPECT_EQ(grams[2], "ab#");
  EXPECT_EQ(grams[3], "b##");
}

TEST(TokenizeTest, QGramsEmptyInput) {
  EXPECT_TRUE(QGrams("", 3).empty());
  EXPECT_TRUE(QGrams("   ", 3).empty());
}

TEST(TokenizeTest, QGramsNormalizesCaseAndSpace) {
  EXPECT_EQ(QGrams("A  B", 2), QGrams("a b", 2));
}

TEST(TokenizeTest, UnigramsAreCharacters) {
  auto grams = QGrams("abc", 1);
  ASSERT_EQ(grams.size(), 3u);
  EXPECT_EQ(grams[0], "a");
}

TEST(TokenizeTest, Initials) {
  EXPECT_EQ(Initials("Sunita  Sarawagi"), "ss");
  EXPECT_EQ(Initials("Vinay S Deshpande"), "vsd");
  EXPECT_EQ(Initials(""), "");
}

TEST(TokenizeTest, SortedInitials) {
  EXPECT_EQ(SortedInitials("Vinay S Deshpande"), "dsv");
}

TEST(TokenizeTest, NormalizeText) {
  EXPECT_EQ(NormalizeText("  A  b\tC "), "a b c");
  EXPECT_EQ(NormalizeText(""), "");
}

TEST(VocabTest, InternAssignsStableIds) {
  Vocabulary v;
  TokenId a = v.GetOrAdd("alpha");
  TokenId b = v.GetOrAdd("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(v.GetOrAdd("alpha"), a);
  EXPECT_EQ(v.Find("beta"), b);
  EXPECT_EQ(v.Find("gamma"), kInvalidToken);
  EXPECT_EQ(v.TokenString(a), "alpha");
  EXPECT_EQ(v.size(), 2u);
}

TEST(VocabTest, InternSetSortsAndDedupes) {
  Vocabulary v;
  auto ids = v.InternSet({"b", "a", "b", "c", "a"});
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

TEST(IdfTest, RareTokensWeighMore) {
  Vocabulary v;
  IdfTable idf;
  TokenId common = v.GetOrAdd("the");
  TokenId rare = v.GetOrAdd("sarawagi");
  for (int i = 0; i < 99; ++i) idf.AddDocument({common});
  idf.AddDocument({common, rare});
  EXPECT_EQ(idf.document_count(), 100);
  EXPECT_EQ(idf.DocumentFrequency(common), 100);
  EXPECT_EQ(idf.DocumentFrequency(rare), 1);
  EXPECT_GT(idf.Idf(rare), idf.Idf(common));
  // Unseen tokens get the maximal weight.
  EXPECT_GE(idf.Idf(kInvalidToken), idf.Idf(rare));
}

TEST(IntersectionTest, SortedIntersectionSize) {
  EXPECT_EQ(SortedIntersectionSize({1, 3, 5, 7}, {2, 3, 4, 5}), 2);
  EXPECT_EQ(SortedIntersectionSize({}, {1}), 0);
  EXPECT_EQ(SortedIntersectionSize({1, 2}, {1, 2}), 2);
}

}  // namespace
}  // namespace topkdup::text
