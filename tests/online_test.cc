#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "common/rng.h"
#include "dedup/streaming_collapse.h"
#include "predicates/generic.h"
#include "sim/similarity.h"
#include "text/tokenize.h"
#include "topk/online.h"

namespace topkdup {
namespace {

TEST(StreamingCollapseTest, MergesMatchingSignatures) {
  std::vector<std::string> names = {"acme", "zenith", "acme",
                                    "acme",  "zenith"};
  dedup::StreamingCollapse collapse(
      [&](size_t a, size_t b) { return names[a] == names[b]; });
  for (const auto& name : names) {
    collapse.Insert({name}, 1.0);
  }
  EXPECT_EQ(collapse.record_count(), 5u);
  auto groups = collapse.Groups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_DOUBLE_EQ(groups[0].weight, 3.0);  // acme x3.
  EXPECT_DOUBLE_EQ(groups[1].weight, 2.0);
  EXPECT_EQ(groups[0].members, (std::vector<size_t>{0, 2, 3}));
  EXPECT_EQ(groups[1].members, (std::vector<size_t>{1, 4}));
}

TEST(StreamingCollapseTest, BlockingFiltersNonCandidates) {
  int evaluations = 0;
  std::vector<std::string> names = {"aa bb", "cc dd", "aa xx"};
  dedup::StreamingCollapse collapse([&](size_t a, size_t b) {
    ++evaluations;
    return names[a] == names[b];
  });
  collapse.Insert({"aa", "bb"}, 1.0);
  collapse.Insert({"cc", "dd"}, 1.0);  // No shared token: no evaluation.
  collapse.Insert({"aa", "xx"}, 1.0);  // Shares "aa" with record 0.
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(collapse.group_count(), 3u);  // All distinct entities.
}

TEST(StreamingCollapseTest, WeightsStayExactOverManyInserts) {
  std::vector<int> keys;
  dedup::StreamingCollapse collapse(
      [&](size_t a, size_t b) { return keys[a] == keys[b]; });
  std::map<int, double> expected;
  for (int i = 0; i < 200; ++i) {
    const int key = i % 7;
    keys.push_back(key);
    collapse.Insert({"k" + std::to_string(key)}, 1.0 + key);
    expected[key] += 1.0 + key;
  }
  auto groups = collapse.Groups();
  ASSERT_EQ(groups.size(), 7u);
  size_t total_members = 0;
  for (const auto& g : groups) {
    const int key = keys[g.members.front()];
    for (size_t m : g.members) EXPECT_EQ(keys[m], key) << m;
    EXPECT_DOUBLE_EQ(g.weight, expected[key]) << "key " << key;
    total_members += g.members.size();
  }
  EXPECT_EQ(total_members, 200u);
}

TEST(StreamingCollapseTest, LaterRecordJoinsTwoEarlierGroups) {
  int evaluations = 0;
  dedup::StreamingCollapse collapse([&](size_t, size_t) {
    ++evaluations;
    return true;
  });
  collapse.Insert({"aa"}, 1.0);
  collapse.Insert({"bb"}, 2.0);
  EXPECT_EQ(collapse.group_count(), 2u);
  // Shares "aa" with record 0 and "bb" with record 1 (and repeats "aa").
  collapse.Insert({"aa", "bb", "aa"}, 4.0);
  EXPECT_EQ(evaluations, 2);  // Once per distinct earlier record.
  EXPECT_EQ(collapse.group_count(), 1u);
  auto groups = collapse.Groups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].members, (std::vector<size_t>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(groups[0].weight, 7.0);
}

/// Deterministic, symmetric, non-transitive pair decision: true for about
/// `percent`% of pairs.
bool HashedMatch(size_t a, size_t b, uint64_t seed, int percent) {
  uint64_t x = seed ^ (std::min(a, b) * 0x9E3779B97F4A7C15ull) ^
               (std::max(a, b) * 0xC2B2AE3D27D4EB4Full);
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 29;
  return static_cast<int>(x % 100) < percent;
}

/// Brute-force O(n^2) transitive closure over every pair that shares a
/// signature token and passes `match`, in Groups()'s canonical order.
std::vector<dedup::StreamingCollapse::GroupView> OracleGroups(
    const std::vector<std::vector<std::string>>& signatures,
    const std::vector<double>& weights,
    const std::function<bool(size_t, size_t)>& match) {
  const size_t n = signatures.size();
  std::vector<std::vector<size_t>> adj(n);
  for (size_t b = 0; b < n; ++b) {
    for (size_t a = 0; a < b; ++a) {
      bool share = false;
      for (const std::string& t : signatures[a]) {
        for (const std::string& u : signatures[b]) share = share || t == u;
      }
      if (share && match(b, a)) {
        adj[a].push_back(b);
        adj[b].push_back(a);
      }
    }
  }
  std::vector<bool> seen(n, false);
  std::vector<dedup::StreamingCollapse::GroupView> out;
  for (size_t start = 0; start < n; ++start) {
    if (seen[start]) continue;
    dedup::StreamingCollapse::GroupView view;
    std::vector<size_t> stack = {start};
    seen[start] = true;
    while (!stack.empty()) {
      const size_t x = stack.back();
      stack.pop_back();
      view.members.push_back(x);
      for (size_t y : adj[x]) {
        if (!seen[y]) {
          seen[y] = true;
          stack.push_back(y);
        }
      }
    }
    std::sort(view.members.begin(), view.members.end());
    for (size_t m : view.members) view.weight += weights[m];
    out.push_back(std::move(view));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.members.front() < b.members.front();
            });
  return out;
}

TEST(StreamingCollapseTest, MatchesBruteForceClosureOnRandomStreams) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    // Few tokens and multi-token signatures: postings collide heavily and
    // later records routinely bridge groups formed earlier. Past 1000
    // mentions to cover long-running streams.
    const size_t n = seed <= 2 ? 1200 : 300;
    const size_t vocab = 8 + rng.Uniform(40);
    const int percent = 20 + static_cast<int>(rng.Uniform(60));
    std::vector<std::vector<std::string>> signatures;
    std::vector<double> weights;
    std::set<std::pair<size_t, size_t>> evaluated;
    bool duplicate_evaluation = false;
    const auto match = [&](size_t a, size_t b) {
      return HashedMatch(a, b, seed, percent);
    };
    dedup::StreamingCollapse collapse([&](size_t a, size_t b) {
      duplicate_evaluation |= !evaluated.insert({a, b}).second;
      return match(a, b);
    });
    size_t bridges = 0;
    for (size_t i = 0; i < n; ++i) {
      std::vector<std::string> signature;
      const size_t tokens = 1 + rng.Uniform(3);
      for (size_t t = 0; t < tokens; ++t) {
        signature.push_back("t" + std::to_string(rng.Uniform(vocab)));
      }
      signatures.push_back(signature);
      weights.push_back(0.25 + rng.NextDouble() * 3.0);
      const size_t before = collapse.group_count();
      collapse.Insert(signature, weights.back());
      // Joining two earlier groups nets one group fewer than before.
      if (collapse.group_count() < before) ++bridges;
    }
    EXPECT_FALSE(duplicate_evaluation) << "seed " << seed;
    EXPECT_GT(bridges, 0u) << "seed " << seed;
    EXPECT_EQ(collapse.record_count(), n);

    const auto expected = OracleGroups(signatures, weights, match);
    const auto actual = collapse.Groups();
    EXPECT_EQ(collapse.group_count(), expected.size());
    ASSERT_EQ(actual.size(), expected.size()) << "seed " << seed;
    for (size_t g = 0; g < actual.size(); ++g) {
      EXPECT_EQ(actual[g].members, expected[g].members)
          << "seed " << seed << " group " << g;
      EXPECT_EQ(actual[g].weight, expected[g].weight)  // Bit-identical.
          << "seed " << seed << " group " << g;
    }
  }
}

class OnlineTopKTest : public ::testing::Test {
 protected:
  topk::OnlineTopK MakeStream() {
    topk::OnlineTopK::Config config;
    config.sufficient_signature = [](const record::Record& r) {
      return std::vector<std::string>{text::NormalizeText(r.field(0))};
    };
    config.sufficient_match = [](const record::Record& a,
                                 const record::Record& b) {
      return text::NormalizeText(a.field(0)) ==
             text::NormalizeText(b.field(0));
    };
    config.necessary_factory = [](const predicates::Corpus& corpus) {
      return std::make_unique<predicates::QGramOverlapPredicate>(
          &corpus, 0, 0.6);
    };
    config.scorer_factory = [](const record::Dataset& reps) {
      return [&reps](size_t a, size_t b) {
        const double jw =
            sim::JaroWinkler(text::NormalizeText(reps[a].field(0)),
                             text::NormalizeText(reps[b].field(0)));
        return (jw - 0.85) * 10.0;
      };
    };
    return topk::OnlineTopK(record::Schema({"name"}), std::move(config));
  }

  static record::Record Mention(const char* name) {
    record::Record r;
    r.fields = {name};
    return r;
  }
};

TEST_F(OnlineTopKTest, QueryTracksTheStream) {
  topk::OnlineTopK stream = MakeStream();
  for (const char* name :
       {"maria gonzalez", "maria gonzalez", "wei zhang", "otto becker"}) {
    stream.AddMention(Mention(name));
  }
  EXPECT_EQ(stream.mention_count(), 4u);

  topk::TopKCountOptions options;
  options.k = 1;
  auto result = stream.Query(options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().answers.empty());
  const auto& top = result.value().answers[0].groups[0];
  EXPECT_DOUBLE_EQ(top.weight, 2.0);  // maria x2.

  // More mentions shift the leader.
  for (int i = 0; i < 3; ++i) {
    stream.AddMention(Mention("wei zhang"));
  }
  stream.AddMention(Mention("wei zhangg"));  // Noisy variant.
  auto result2 = stream.Query(options);
  ASSERT_TRUE(result2.ok());
  const auto& top2 = result2.value().answers[0].groups[0];
  EXPECT_GE(top2.weight, 4.0);  // wei zhang (+variant if merged).
  // Members refer to mention ids in ingestion order; the query object
  // itself exposes no record access, so just bound-check them.
  for (size_t m : top2.members) {
    EXPECT_LT(m, stream.mention_count());
  }
}

TEST_F(OnlineTopKTest, EpochPublishPinAndRestore) {
  topk::OnlineTopK stream = MakeStream();
  EXPECT_EQ(stream.current_epoch(), 0u);
  EXPECT_EQ(stream.PinEpoch(), nullptr);  // Nothing published yet.

  for (const char* name :
       {"maria gonzalez", "maria gonzalez", "wei zhang", "otto becker"}) {
    stream.AddMention(Mention(name));
  }
  EXPECT_EQ(stream.PublishEpoch(), 1u);
  auto pinned = stream.PinEpoch();
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->epoch, 1u);
  EXPECT_EQ(pinned->snapshot.mention_weights.size(), 4u);

  // A pinned epoch is immutable: later ingest + publication do not touch
  // it, and queries against it replay the state it froze.
  for (int i = 0; i < 3; ++i) stream.AddMention(Mention("wei zhang"));
  EXPECT_EQ(stream.PublishEpoch(), 2u);
  EXPECT_EQ(pinned->snapshot.mention_weights.size(), 4u);
  topk::TopKCountOptions options;
  options.k = 1;
  auto old_result = stream.QuerySnapshot(pinned->snapshot, options);
  ASSERT_TRUE(old_result.ok());
  EXPECT_DOUBLE_EQ(old_result.value().answers[0].groups[0].weight, 2.0);
  auto new_pin = stream.PinEpoch();
  ASSERT_NE(new_pin, nullptr);
  EXPECT_EQ(new_pin->epoch, 2u);
  auto new_result = stream.QuerySnapshot(new_pin->snapshot, options);
  ASSERT_TRUE(new_result.ok());
  EXPECT_DOUBLE_EQ(new_result.value().answers[0].groups[0].weight, 4.0);

  // RestoreEpochCounter is max-only: recovery can never move time
  // backwards under a published epoch.
  stream.RestoreEpochCounter(1);
  EXPECT_EQ(stream.current_epoch(), 2u);
  stream.RestoreEpochCounter(9);
  EXPECT_EQ(stream.current_epoch(), 9u);
  EXPECT_EQ(stream.PublishEpoch(), 10u);
}

TEST_F(OnlineTopKTest, CheckpointRoundTripsEpochCounter) {
  topk::OnlineTopK stream = MakeStream();
  stream.AddMention(Mention("maria gonzalez"));
  stream.AddMention(Mention("wei zhang"));
  stream.PublishEpoch();
  stream.PublishEpoch();
  stream.PublishEpoch();
  ASSERT_EQ(stream.current_epoch(), 3u);
  const std::string image = stream.SerializeCheckpoint();

  topk::OnlineTopK restored = MakeStream();
  ASSERT_TRUE(restored.RestoreFromCheckpoint(image).ok());
  EXPECT_EQ(restored.mention_count(), 2u);
  EXPECT_EQ(restored.current_epoch(), 3u);
  EXPECT_EQ(restored.PublishEpoch(), 4u);
}

TEST_F(OnlineTopKTest, GroupCountStaysBelowMentions) {
  topk::OnlineTopK stream = MakeStream();
  for (int i = 0; i < 60; ++i) {
    stream.AddMention(Mention(i % 2 == 0 ? "acme systems" : "zenith labs"));
  }
  EXPECT_EQ(stream.mention_count(), 60u);
  // All mentions collapse into two groups incrementally.
  auto groups_weighted = stream.Query([] {
    topk::TopKCountOptions o;
    o.k = 2;
    return o;
  }());
  ASSERT_TRUE(groups_weighted.ok());
  const auto& answer = groups_weighted.value().answers[0];
  ASSERT_EQ(answer.groups.size(), 2u);
  EXPECT_DOUBLE_EQ(answer.groups[0].weight, 30.0);
  EXPECT_DOUBLE_EQ(answer.groups[1].weight, 30.0);
}

}  // namespace
}  // namespace topkdup
