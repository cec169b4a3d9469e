// Micro benchmark: greedy linear embedding — wall time and the
// linear-arrangement objective it achieves on clustered similarity graphs.
#include <benchmark/benchmark.h>

#include "cluster/pair_scores.h"
#include "common/rng.h"
#include "embed/linear_embedding.h"

namespace topkdup {
namespace {

cluster::PairScores ClusteredScores(size_t n, size_t cluster_size,
                                    uint64_t seed) {
  Rng rng(seed);
  cluster::PairScores s(n);
  for (size_t base = 0; base + cluster_size <= n; base += cluster_size) {
    for (size_t i = base; i < base + cluster_size; ++i) {
      for (size_t j = i + 1; j < base + cluster_size; ++j) {
        if (rng.Bernoulli(0.7)) s.Set(i, j, 1.0 + rng.NextDouble());
      }
    }
  }
  // Sparse cross-cluster noise.
  for (size_t e = 0; e < n; ++e) {
    const size_t i = rng.Uniform(n);
    const size_t j = rng.Uniform(n);
    if (i != j && !s.Has(i, j)) s.Set(i, j, -rng.NextDouble());
  }
  return s;
}

void BM_GreedyEmbedding(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const cluster::PairScores s = ClusteredScores(n, 4, 3);
  double cost = 0;
  for (auto _ : state) {
    auto order = embed::GreedyEmbedding(s);
    cost = embed::ArrangementCost(order, s);
    benchmark::DoNotOptimize(order);
  }
  state.counters["arrangement_cost"] = cost;
}
BENCHMARK(BM_GreedyEmbedding)->Arg(128)->Arg(512)->Arg(2048);

}  // namespace
}  // namespace topkdup

BENCHMARK_MAIN();
