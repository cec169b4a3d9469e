#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>

#include "predicates/corpus.h"
#include "predicates/pair_predicate.h"
#include "record/record.h"
#include "serve/service.h"
#include "topk/online.h"
#include "topk/pair_scoring.h"

namespace servebench {

/// Citation records with load_serve's generator settings (records/4
/// authors, generator defaults otherwise).
topkdup::record::Dataset ServeCitations(size_t records, uint64_t seed);

/// Citation records with fig6_timing's generator settings: records/5
/// authors, mostly common-pool names, thin skewed counts, many variants.
topkdup::record::Dataset Fig6Citations(size_t records, uint64_t seed);

/// load_serve's citation bundle over `data`: one level (CitationS1 at
/// 0.75 max-idf, q-gram overlap N1) and the Jaro-Winkler scorer. The
/// corpus build is timed into `corpus_seconds`.
topkdup::serve::DatasetBundle ServeBundle(topkdup::record::Dataset data,
                                          double* corpus_seconds);

/// fig6_timing's two-level bundle over `data`: (S1 at 0.5 max-idf, N1),
/// (S2, N2 with a common initial), plus the Jaro-Winkler scorer.
topkdup::serve::DatasetBundle Fig6Bundle(topkdup::record::Dataset data,
                                         double* corpus_seconds);

/// Necessary predicate of the online stream over a representatives
/// corpus: q-gram overlap >= 0.6 on the author field.
std::unique_ptr<topkdup::predicates::PairPredicate> StreamNecessary(
    const topkdup::predicates::Corpus& corpus);

/// Final scorer over a representatives dataset: Jaro-Winkler of the
/// normalized authors, centred at 0.85.
topkdup::topk::PairScoreFn StreamScorer(const topkdup::record::Dataset& reps);

/// Online author stream: sufficient key = normalized author, with the
/// two factories above.
std::unique_ptr<topkdup::topk::OnlineTopK> MakeAuthorStream();

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
