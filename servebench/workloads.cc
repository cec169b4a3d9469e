#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "datagen/citation_gen.h"
#include "predicates/citation.h"
#include "predicates/generic.h"
#include "sim/similarity.h"
#include "text/tokenize.h"

namespace servebench {
namespace {

using topkdup::record::Dataset;

Dataset Generate(const topkdup::datagen::CitationGenOptions& gen) {
  auto data_or = topkdup::datagen::GenerateCitations(gen);
  if (!data_or.ok()) {
    std::fprintf(stderr, "GenerateCitations: %s\n",
                 data_or.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(data_or).value();
}

topkdup::topk::PairScoreFn AuthorJaroWinkler(const Dataset* data) {
  return [data](size_t a, size_t b) {
    return (topkdup::sim::JaroWinkler(
                topkdup::text::NormalizeText((*data)[a].field(0)),
                topkdup::text::NormalizeText((*data)[b].field(0))) -
            0.85) *
           10.0;
  };
}

/// Owns `data` and its corpus in a bundle; predicates are added by the
/// caller.
topkdup::serve::DatasetBundle BundleWithCorpus(Dataset data,
                                               double* corpus_seconds) {
  topkdup::serve::DatasetBundle bundle;
  bundle.data = std::make_unique<Dataset>(std::move(data));
  const auto start = std::chrono::steady_clock::now();
  auto corpus_or = topkdup::predicates::Corpus::Build(bundle.data.get(), {});
  *corpus_seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  if (!corpus_or.ok()) {
    std::fprintf(stderr, "Corpus::Build: %s\n",
                 corpus_or.status().ToString().c_str());
    std::exit(2);
  }
  bundle.corpus = std::make_unique<topkdup::predicates::Corpus>(
      std::move(corpus_or).value());
  bundle.scorer = AuthorJaroWinkler(bundle.data.get());
  return bundle;
}

}  // namespace

Dataset ServeCitations(size_t records, uint64_t seed) {
  topkdup::datagen::CitationGenOptions gen;
  gen.num_records = records;
  gen.num_authors = std::max<size_t>(1, records / 4);
  gen.seed = seed;
  return Generate(gen);
}

Dataset Fig6Citations(size_t records, uint64_t seed) {
  topkdup::datagen::CitationGenOptions gen;
  gen.num_records = records;
  gen.num_authors = std::max<size_t>(1, records / 5);
  gen.seed = seed;
  gen.rare_name_fraction = 0.15;
  gen.count_pareto_alpha = 2.5;
  gen.max_count = 50.0;
  gen.zipf_s = 1.25;
  gen.canonical_mention_prob = 0.25;
  gen.max_variants = 8;
  return Generate(gen);
}

topkdup::serve::DatasetBundle ServeBundle(Dataset data,
                                          double* corpus_seconds) {
  topkdup::serve::DatasetBundle bundle =
      BundleWithCorpus(std::move(data), corpus_seconds);
  const topkdup::predicates::Corpus* corpus = bundle.corpus.get();
  auto s1 = std::make_unique<topkdup::predicates::CitationS1>(
      corpus, topkdup::predicates::CitationFields{}, 0.75 * corpus->MaxIdf(0));
  auto n1 = std::make_unique<topkdup::predicates::QGramOverlapPredicate>(
      corpus, 0, 0.6);
  bundle.levels = {{s1.get(), n1.get()}};
  bundle.predicates.push_back(std::move(s1));
  bundle.predicates.push_back(std::move(n1));
  return bundle;
}

topkdup::serve::DatasetBundle Fig6Bundle(Dataset data,
                                         double* corpus_seconds) {
  topkdup::serve::DatasetBundle bundle =
      BundleWithCorpus(std::move(data), corpus_seconds);
  const topkdup::predicates::Corpus* corpus = bundle.corpus.get();
  const topkdup::predicates::CitationFields fields;
  auto s1 = std::make_unique<topkdup::predicates::CitationS1>(
      corpus, fields, 0.5 * corpus->MaxIdf(0));
  auto s2 = std::make_unique<topkdup::predicates::CitationS2>(corpus, fields);
  auto n1 = std::make_unique<topkdup::predicates::QGramOverlapPredicate>(
      corpus, 0, 0.6);
  auto n2 = std::make_unique<topkdup::predicates::QGramOverlapPredicate>(
      corpus, 0, 0.6, true);
  bundle.levels = {{s1.get(), n1.get()}, {s2.get(), n2.get()}};
  bundle.predicates.push_back(std::move(s1));
  bundle.predicates.push_back(std::move(s2));
  bundle.predicates.push_back(std::move(n1));
  bundle.predicates.push_back(std::move(n2));
  return bundle;
}

std::unique_ptr<topkdup::predicates::PairPredicate> StreamNecessary(
    const topkdup::predicates::Corpus& corpus) {
  return std::make_unique<topkdup::predicates::QGramOverlapPredicate>(
      &corpus, 0, 0.6);
}

topkdup::topk::PairScoreFn StreamScorer(const Dataset& reps) {
  return AuthorJaroWinkler(&reps);
}

std::unique_ptr<topkdup::topk::OnlineTopK> MakeAuthorStream() {
  topkdup::topk::OnlineTopK::Config config;
  config.sufficient_signature = [](const topkdup::record::Record& r) {
    return std::vector<std::string>{topkdup::text::NormalizeText(r.field(0))};
  };
  config.sufficient_match = [](const topkdup::record::Record& a,
                               const topkdup::record::Record& b) {
    return topkdup::text::NormalizeText(a.field(0)) ==
           topkdup::text::NormalizeText(b.field(0));
  };
  config.necessary_factory = StreamNecessary;
  config.scorer_factory = StreamScorer;
  return std::make_unique<topkdup::topk::OnlineTopK>(
      topkdup::record::Schema({"author", "coauthors", "title"}),
      std::move(config));
}

}  // namespace servebench
