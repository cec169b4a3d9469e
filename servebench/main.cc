// Serve-path benchmark for serve::QueryService.
//
//   servebench --workload count_mix|rank_sweep|online_ingest --seed N
//              --seconds S --trace 0|1 [--size full|tiny] [--workdir DIR]
//
// Each invocation runs one workload in its own process: it generates the
// workload's inputs from --seed, sets the service up kSetups times
// (setup_s is the median), computes reference answers single-threaded,
// drives the service through its public API for --seconds, and checks
// every exact answer against its reference bit for bit. peak_rss_mb is
// read when the timed window ends, and the static workloads' references
// come from a child process, so the oracle's memory never counts in it. --trace 0 prints
// the end-to-end metrics; --trace 1 additionally replays the workload's
// queries through the layers' public functions, timing each call and
// reading the metrics registry around it, and prints the per-layer
// metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Workloads (why each exists, and which layer it loads):
//   count_mix      load_serve's citation bundle, count queries over a
//                  shuffled K x R mix, cache off, 2 clients x 2 workers,
//                  queries on 2 threads. The segment DP and pair scoring
//                  dominate.
//   rank_sweep     fig6's two-level citation dataset, rank queries at a
//                  fixed K sweep, 1 client, 2 threads. Only dedup (CPN
//                  lower bound and prune) and the blocked index run; no
//                  pair scoring, embedding or DP.
//   online_ingest  a WAL-backed online author stream: an open-loop
//                  writer beside a closed-loop query client with a skewed
//                  shape mix, answer cache on, queries on 1 thread.
//                  Ingest, WAL, epoch publish, the cache and the per-query
//                  rebuild run here only.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "oracle.h"
#include "pipeline.h"
#include "predicates/index_cache.h"
#include "serve/service.h"
#include "workloads.h"

namespace servebench {
namespace {

namespace serve = topkdup::serve;
namespace topk = topkdup::topk;
using topkdup::record::Dataset;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

uint64_t CounterValue(const char* name) {
  return topkdup::metrics::Registry::Global().GetCounter(name)->Value();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: the value
/// at sorted index n - 11. When that index would not lie above the median
/// (n < 22) there are too few samples for a tail, and the maximum is
/// reported instead.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t samples = 0;
};

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t index = n >= 22 ? n - 11 : n - 1;
  tail.value = values[index];
  tail.percentile = 100.0 * static_cast<double>(index + 1) /
                    static_cast<double>(n);
  return tail;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Clock::duration Seconds(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// A workload's query sequence: rounds that each hold every shape index
/// once, in a seeded order (or in listed order). Clients share one
/// sequence, and it closes at the first round boundary after the window
/// ends, so the served mix is exactly balanced.
class RoundSequence {
 public:
  RoundSequence(size_t round, bool shuffle, uint64_t seed,
                Clock::time_point end)
      : order_(round), shuffle_(shuffle), rng_(seed), end_(end) {}

  /// The next shape index, or nullopt once the sequence has closed.
  std::optional<size_t> Next() {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t slot = next_ % order_.size();
    if (slot == 0) {
      if (closed_ || Clock::now() >= end_) {
        closed_ = true;
        return std::nullopt;
      }
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      if (shuffle_) std::shuffle(order_.begin(), order_.end(), rng_);
    }
    ++next_;
    return order_[slot];
  }

 private:
  std::mutex mu_;
  std::vector<size_t> order_;
  bool shuffle_;
  std::mt19937_64 rng_;
  Clock::time_point end_;
  size_t next_ = 0;
  bool closed_ = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string workdir = ".bench_build/run";
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg.rfind("--", 0) != 0) return false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (arg == "--workload") {
      flags->workload = value;
    } else if (arg == "--seed") {
      flags->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      flags->seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      flags->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (arg == "--size") {
      flags->tiny = value == "tiny";
      if (value != "tiny" && value != "full") return false;
    } else if (arg == "--workdir") {
      flags->workdir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !flags->workload.empty() && flags->seconds > 0.0;
}

/// How often each run sets the service up; setup_s is the median. The
/// host's speed drifts over seconds, and nine set-ups sample a long enough
/// stretch of it to keep the median steady from run to run.
constexpr int kSetups = 9;

serve::ServiceOptions BaseServiceOptions() {
  serve::ServiceOptions options;
  options.workers = 2;
  // Registration's calibration query keeps the stock 1 s budget; requests
  // carry kRequestDeadlineMs, far above any query's cost, so the service
  // answers every request exactly instead of degrading it.
  options.max_deadline_ms = 600000;
  return options;
}

constexpr int64_t kRequestDeadlineMs = 600000;

// Process-wide parallelism for the service's queries (common/parallel.h).
// The benchmark host is a few shared vCPUs, and a parallel region waits for
// its slowest thread, so each thread a query fans out over is one more
// chance of being descheduled by another tenant. Measured on a shared
// 4-vCPU host, five interleaved seeds each: online_ingest's query_p50_s
// ranged 0.037-0.050 s at 4 threads and 0.054-0.056 s at 1; count_mix and
// rank_sweep lost under 10% of their throughput at 2 (rank queries use
// ~1.2 cores at any level).
constexpr int kStaticThreads = 2;
constexpr int kOnlineThreads = 1;

// The datasets are the ROADMAP baselines' own: load_serve's citation
// bundle (generator seed 7) and fig6_timing's generator (seed 45000). The
// workload seed drives the query sequence. Seed-varied datasets make the
// per-query work itself vary: the count_mix round cost ranged 5.6-9.9 s
// over generator seeds 1-8, wider than any regression bound could absorb.
constexpr uint64_t kServeDataSeed = 7;
constexpr uint64_t kFig6DataSeed = 45000;

/// Disposition tally over the timed window. Failed = degraded, breaker
/// bounds-only, shed, error, or an exact answer that differs from its
/// reference.
struct Outcomes {
  uint64_t attempted = 0;
  uint64_t exact_ok = 0;
  uint64_t degraded = 0;
  uint64_t breaker = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t mismatched = 0;
  uint64_t unchecked = 0;  // Exact answers outside the oracle's sample.
  uint64_t failed() const {
    return degraded + breaker + shed + errors + mismatched;
  }

  /// `want` is the reference dump, or null when this answer is not
  /// sampled by the oracle.
  void Add(const serve::QueryResponse& response, const std::string* got,
           const std::string* want) {
    ++attempted;
    if (!response.status.ok()) {
      if (response.outcome == serve::ServedOutcome::kShed) {
        ++shed;
      } else {
        ++errors;
      }
      return;
    }
    switch (response.outcome) {
      case serve::ServedOutcome::kExact:
        break;
      case serve::ServedOutcome::kDegraded:
        ++degraded;
        return;
      case serve::ServedOutcome::kBreakerDegraded:
        ++breaker;
        return;
      default:
        ++errors;
        return;
    }
    if (want == nullptr) {
      ++unchecked;
      ++exact_ok;
    } else if (*got == *want) {
      ++exact_ok;
    } else {
      ++mismatched;
    }
  }

  void Print(const char* what) const {
    std::printf(
        "%s: attempted=%llu exact_ok=%llu degraded=%llu breaker_bounds_only=%llu "
        "shed=%llu errors=%llu mismatched=%llu unchecked=%llu\n",
        what, static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(exact_ok),
        static_cast<unsigned long long>(degraded),
        static_cast<unsigned long long>(breaker),
        static_cast<unsigned long long>(shed),
        static_cast<unsigned long long>(errors),
        static_cast<unsigned long long>(mismatched),
        static_cast<unsigned long long>(unchecked));
  }
};

/// Serve-layer figures read from QueryResponse fields and registry deltas
/// over the timed window.
struct ServeLayer {
  std::vector<double> latencies;
  std::vector<double> queue_seconds;
  std::vector<double> exec_seconds;
  uint64_t answered = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  uint64_t shed = 0;
  uint64_t retries = 0;
  uint64_t degraded = 0;
  double window_seconds = 0.0;
  double cpu_seconds = 0.0;
  double peak_rss_mb = 0.0;  // Process peak when the window ends.
  // Online ingest.
  std::vector<double> ingest_ack;   // Ack time minus due time.
  std::vector<double> ingest_call;  // Time inside Ingest().
  double generator_lag_max = 0.0;
  uint64_t ingested = 0;
  uint64_t ingest_failed = 0;
  uint64_t epochs_published = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_fsyncs = 0;

  void AddResponse(const serve::QueryResponse& r) {
    latencies.push_back(r.latency_seconds);
    if (r.status.ok()) ++answered;
    if (r.attempts > 0) {
      queue_seconds.push_back(r.queue_seconds);
      exec_seconds.push_back(r.latency_seconds - r.queue_seconds);
    }
    if (!r.cache.empty()) {
      ++cache_lookups;
      if (r.cache == "hit") ++cache_hits;
    }
    if (r.outcome == serve::ServedOutcome::kShed) ++shed;
    if (r.outcome == serve::ServedOutcome::kDegraded ||
        r.outcome == serve::ServedOutcome::kBreakerDegraded) {
      ++degraded;
    }
  }
};

/// Set-up cost, measured kSetups times.
struct SetupTimes {
  std::vector<double> total;
  std::vector<double> corpus;
  std::vector<double> register_s;
};

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

struct Report {
  Outcomes outcomes;
  ServeLayer serve;
  SetupTimes setup;
  Ledger ledger;
  uint64_t trace_mismatched = 0;
};

std::vector<Metric> EndToEnd(const Report& report) {
  const ServeLayer& s = report.serve;
  const Tail tail = TailOf(s.latencies);
  std::printf("query_tail: p%.1f over %zu samples\n", tail.percentile,
              tail.samples);
  return {
      {"setup_s", Median(report.setup.total), "s"},
      {"peak_rss_mb", s.peak_rss_mb, "MB"},
      {"query_p50_s", Median(s.latencies), "s"},
      {"query_tail_s", tail.value, "s"},
      {"exact_qps",
       Ratio(static_cast<double>(report.outcomes.exact_ok), s.window_seconds),
       "1/s"},
      {"cpu_per_query_s", Ratio(s.cpu_seconds, static_cast<double>(s.answered)), "s"},
  };
}

/// Every per-layer metric, on every workload: a layer the workload never
/// runs reports 0, which is the prediction for that pairing.
std::vector<Metric> PerLayer(const Report& report) {
  const Ledger& l = report.ledger;
  const ServeLayer& s = report.serve;
  const double q = std::max(1, l.queries);
  auto stage = [&](const std::string& name) -> const StageTotals& {
    static const StageTotals kEmpty;
    auto it = l.stages.find(name);
    return it == l.stages.end() ? kEmpty : it->second;
  };
  auto per_query_s = [&](const std::string& name) {
    return stage(name).seconds / q;
  };
  auto per_query = [&](const std::string& name, CounterId id) {
    return static_cast<double>(stage(name).counters[id]) / q;
  };
  std::vector<Metric> m = {
      {"segment.topk_dp_s", per_query_s("segment.topk_dp"), "s"},
      {"segment.scorer_s", per_query_s("segment.scorer"), "s"},
      {"segment.scorer.cells_filled",
       per_query("segment.scorer", kCellsFilled), "count"},
      {"topk.pair_scoring_s", per_query_s("topk.pair_scoring"), "s"},
      {"topk.pair_scores.pairs_scored",
       per_query("topk.pair_scoring", kPairsScored), "count"},
      {"embed.greedy_s", per_query_s("embed.greedy"), "s"},
      {"topk.answer_assembly_s", per_query_s("topk.answer_assembly"), "s"},
  };
  for (const char* level : {"l1", "l2"}) {
    const std::string p = std::string("dedup.") + level + ".";
    const StageTotals& prune = stage(p + "prune");
    m.push_back({p + "collapse_s", per_query_s(p + "collapse"), "s"});
    m.push_back({p + "collapse.pair_evals",
                 per_query(p + "collapse", kCollapsePairEvals), "count"});
    m.push_back({p + "lower_bound_s", per_query_s(p + "lower_bound"), "s"});
    m.push_back({p + "lower_bound.edges_examined",
                 per_query(p + "lower_bound", kLowerBoundEdges), "count"});
    m.push_back({p + "lower_bound.cpn_evals",
                 per_query(p + "lower_bound", kLowerBoundCpnEvals), "count"});
    m.push_back({p + "prune_s", per_query_s(p + "prune"), "s"});
    m.push_back({p + "prune.pair_evals",
                 per_query(p + "prune", kPrunePairEvals), "count"});
    m.push_back({p + "prune.pruned_ratio",
                 Ratio(static_cast<double>(prune.counters[kPruneGroupsPruned]),
                       static_cast<double>(
                           prune.counters[kPruneGroupsExamined])),
                 "ratio"});
  }
  const double blocks_decoded =
      static_cast<double>(l.CounterTotal(kBlocksDecoded));
  const double blocks_skipped =
      static_cast<double>(l.CounterTotal(kBlocksSkipped));
  const double cache_hits = static_cast<double>(l.CounterTotal(kIndexCacheHits));
  const double cache_misses =
      static_cast<double>(l.CounterTotal(kIndexCacheMisses));
  const Tail ingest_tail = TailOf(s.ingest_ack);
  const std::vector<Metric> rest = {
      {"dedup.groups_out", static_cast<double>(l.groups_out) / q, "count"},
      {"topk.rank_resolve_s", per_query_s("topk.rank_resolve"), "s"},
      {"predicates.blocked_index.postings_decoded",
       static_cast<double>(l.CounterTotal(kPostingsDecoded)) / q, "count"},
      {"predicates.blocked_index.candidates",
       static_cast<double>(l.CounterTotal(kCandidates)) / q, "count"},
      {"predicates.blocked_index.skip_ratio",
       Ratio(blocks_skipped, blocks_skipped + blocks_decoded), "ratio"},
      {"predicates.index_cache.hit_ratio",
       Ratio(cache_hits, cache_hits + cache_misses), "ratio"},
      {"predicates.corpus_build_s", Median(report.setup.corpus), "s"},
      {"serve.register_s", Median(report.setup.register_s), "s"},
      {"topk.online.rebuild_s", per_query_s("topk.online.rebuild"), "s"},
      {"serve.cache.hit_ratio",
       Ratio(static_cast<double>(s.cache_hits),
             static_cast<double>(s.cache_lookups)),
       "ratio"},
      {"serve.queue_s", Mean(s.queue_seconds), "s"},
      {"serve.exec_s", Mean(s.exec_seconds), "s"},
      {"serve.ingest_s", Mean(s.ingest_call), "s"},
      {"serve.ingest_p50_s", Median(s.ingest_ack), "s"},
      {"serve.ingest_tail_s", ingest_tail.value, "s"},
      {"serve.ingest.generator_lag_s", s.generator_lag_max, "s"},
      {"serve.epochs_published", static_cast<double>(s.epochs_published),
       "count"},
      {"serve.wal.bytes_per_mention",
       Ratio(static_cast<double>(s.wal_bytes),
             static_cast<double>(s.ingested)),
       "bytes"},
      {"serve.wal.fsyncs", static_cast<double>(s.wal_fsyncs), "count"},
      {"serve.shed", static_cast<double>(s.shed), "count"},
      {"serve.retries", static_cast<double>(s.retries), "count"},
      {"serve.degraded", static_cast<double>(s.degraded), "count"},
      {"trace.unattributed_share",
       Ratio(l.traced_seconds - l.StageSeconds(), l.traced_seconds), "ratio"},
      {"trace.overhead_ratio", Ratio(l.traced_seconds, l.untraced_seconds),
       "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  if (!s.ingest_ack.empty()) {
    std::printf("ingest_tail: p%.1f over %zu samples\n",
                ingest_tail.percentile, ingest_tail.samples);
  }
  return m;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

struct Shape {
  int k;
  int r;
  bool operator<(const Shape& o) const {
    return std::tie(k, r) < std::tie(o.k, o.r);
  }
};

/// Median latency per distinct shape of a round (shapes may repeat).
void PrintShapeLatencies(const std::vector<Shape>& shapes,
                         const std::vector<size_t>& served_index,
                         const std::vector<double>& latency) {
  std::map<Shape, std::vector<double>> by_shape;
  for (size_t i = 0; i < served_index.size(); ++i) {
    by_shape[shapes[served_index[i]]].push_back(latency[i]);
  }
  for (const auto& [shape, values] : by_shape) {
    std::printf("shape k=%d r=%d: served=%zu p50=%.6fs\n", shape.k, shape.r,
                values.size(), Median(values));
  }
}

// ---------------------------------------------------------------------------
// Static workloads: count_mix and rank_sweep.

using BundleFn = serve::DatasetBundle (*)(Dataset, double*);

struct StaticWorkload {
  // Generates the dataset afresh for each user, so no copy outlives the
  // service that owns it and adds to the measured peak memory.
  std::function<Dataset()> generate;
  BundleFn make_bundle;
  serve::QueryKind kind;
  std::vector<Shape> shapes;
  bool shuffle;  // Per-round seeded shuffle of the shape order.
  int clients;
};

std::unique_ptr<serve::QueryService> SetUpStatic(const StaticWorkload& w,
                                                 SetupTimes* times) {
  Dataset data = w.generate();  // Data generation is not set-up.
  const Clock::time_point start = Clock::now();
  double corpus_seconds = 0.0;
  serve::DatasetBundle bundle = w.make_bundle(std::move(data), &corpus_seconds);
  serve::ServiceOptions options = BaseServiceOptions();
  // The static workloads measure query execution, so the answer cache is
  // off: every request runs the pipeline.
  options.cache.enabled = false;
  auto service = std::make_unique<serve::QueryService>(options);
  const Clock::time_point register_start = Clock::now();
  const topkdup::Status registered =
      service->RegisterDataset("bench", std::move(bundle));
  if (!registered.ok()) {
    std::fprintf(stderr, "RegisterDataset: %s\n",
                 registered.ToString().c_str());
    std::exit(2);
  }
  times->register_s.push_back(Since(register_start));
  times->total.push_back(Since(start));
  times->corpus.push_back(corpus_seconds);
  return service;
}

/// The options the service applies to a request of this shape.
topk::TopKRankOptions RankOptions(Shape shape) {
  topk::TopKRankOptions options;
  options.k = shape.k;
  options.prune_passes = serve::ServiceOptions{}.rank_prune_passes;
  return options;
}

topk::TopKCountOptions CountOptions(Shape shape, size_t records) {
  topk::TopKCountOptions options;
  options.k = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(shape.k), records));
  options.r = shape.r;
  return options;
}

/// Runs one query through the plain public entry point (TopKRankQuery or
/// TopKCountQuery) and returns its answer dump; adds its wall time to
/// `seconds` when given.
std::string PlainQuery(const StaticWorkload& w,
                       const serve::DatasetBundle& bundle, Shape shape,
                       int threads, topkdup::predicates::IndexCache* cache,
                       double* seconds) {
  const Clock::time_point start = Clock::now();
  std::string dump;
  if (w.kind == serve::QueryKind::kTopKRank) {
    topk::TopKRankOptions options = RankOptions(shape);
    options.index_cache = cache;
    topkdup::ScopedParallelism parallelism(threads);
    auto result = topk::TopKRankQuery(*bundle.data, bundle.levels, options);
    if (!result.ok()) {
      std::fprintf(stderr, "rank query: %s\n",
                   result.status().ToString().c_str());
      std::exit(3);
    }
    dump = DumpRank(result.value());
  } else {
    topk::TopKCountOptions options = CountOptions(shape, bundle.data->size());
    options.threads = threads;
    options.index_cache = cache;
    auto result = topk::TopKCountQuery(*bundle.data, bundle.levels,
                                       bundle.scorer, options);
    if (!result.ok()) {
      std::fprintf(stderr, "count query: %s\n",
                   result.status().ToString().c_str());
      std::exit(3);
    }
    dump = DumpCount(result.value());
  }
  if (seconds != nullptr) *seconds += Since(start);
  return dump;
}

bool WriteAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

/// Reference answers for one round of shapes: one query at a time,
/// single-threaded, no index cache, on an independently generated and
/// built bundle. They are computed in a child process, forked before this
/// process starts any thread, so the oracle's data, bundle and query
/// memory never count toward the service's peak RSS or its registry
/// counters. The child sends each answer dump as a length and its bytes.
std::vector<std::string> StaticReferences(const StaticWorkload& w) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(3);
  }
  std::fflush(nullptr);  // The child must not flush a copy of our buffers.
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(3);
  }
  if (pid == 0) {
    close(fds[0]);
    topkdup::SetParallelism(1);
    double unused = 0.0;
    const serve::DatasetBundle bundle = w.make_bundle(w.generate(), &unused);
    for (const Shape& shape : w.shapes) {
      const std::string dump = PlainQuery(w, bundle, shape, 1, nullptr, nullptr);
      const uint64_t size = dump.size();
      if (!WriteAll(fds[1], &size, sizeof(size)) ||
          !WriteAll(fds[1], dump.data(), dump.size())) {
        _exit(3);
      }
    }
    _exit(0);
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  std::vector<std::string> reference;
  size_t pos = 0;
  while (pos + sizeof(uint64_t) <= bytes.size()) {
    uint64_t size = 0;
    std::memcpy(&size, bytes.data() + pos, sizeof(size));
    pos += sizeof(size);
    if (size > bytes.size() - pos) break;
    reference.push_back(bytes.substr(pos, size));
    pos += size;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      pos != bytes.size() || reference.size() != w.shapes.size()) {
    std::fprintf(stderr, "reference process failed\n");
    std::exit(3);
  }
  return reference;
}

/// Replays one round of the workload's shapes through the composed
/// pipeline, after an untraced warm-up pass over the same index cache.
void TraceStatic(const StaticWorkload& w, const serve::DatasetBundle& bundle,
                 const std::vector<std::string>& reference, Report* report) {
  topkdup::predicates::IndexCache cache;
  std::vector<size_t> all(bundle.data->size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::set<const topkdup::predicates::PairPredicate*> warmed;
  for (const topkdup::dedup::PredicateLevel& level : bundle.levels) {
    for (const topkdup::predicates::PairPredicate* pred :
         {level.sufficient, level.necessary}) {
      if (pred != nullptr && warmed.insert(pred).second) {
        cache.GetOrBuild(*pred, all);
      }
    }
  }
  for (const Shape& shape : w.shapes) {
    PlainQuery(w, bundle, shape, 0, &cache, nullptr);
  }
  Ledger& ledger = report->ledger;
  for (size_t i = 0; i < w.shapes.size(); ++i) {
    const Shape shape = w.shapes[i];
    const std::string composed =
        w.kind == serve::QueryKind::kTopKRank
            ? DumpRank(ComposeRank(*bundle.data, bundle.levels,
                                   RankOptions(shape), &cache, &ledger))
            : DumpCount(ComposeCount(
                  *bundle.data, bundle.levels, bundle.scorer,
                  CountOptions(shape, bundle.data->size()), &cache, &ledger));
    if (composed != reference[i]) ++report->trace_mismatched;
    PlainQuery(w, bundle, shape, 0, &cache, &ledger.untraced_seconds);
  }
}

Report RunStatic(const StaticWorkload& w, const Flags& flags) {
  Report report;
  const Clock::time_point oracle_start = Clock::now();
  const std::vector<std::string> reference = StaticReferences(w);
  std::printf("oracle: %zu reference answers in %.3fs\n", reference.size(),
              Since(oracle_start));

  topkdup::SetParallelism(kStaticThreads);
  std::printf("parallelism: %d threads\n", topkdup::ParallelismLevel());
  std::unique_ptr<serve::QueryService> service;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    service = SetUpStatic(w, &report.setup);
  }

  struct Served {
    size_t shape;
    serve::QueryResponse response;
  };
  std::vector<std::vector<Served>> per_client(w.clients);
  const uint64_t retries_before = CounterValue("serve.retries");
  const double cpu_before = CpuSeconds();
  const Clock::time_point start = Clock::now();
  RoundSequence sequence(w.shapes.size(), w.shuffle, flags.seed,
                         start + Seconds(flags.seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < w.clients; ++c) {
    clients.emplace_back([&, c] {
      while (const std::optional<size_t> index = sequence.Next()) {
        serve::QueryRequest request;
        request.dataset = "bench";
        request.kind = w.kind;
        request.k = w.shapes[*index].k;
        request.r = w.shapes[*index].r;
        request.deadline_ms = kRequestDeadlineMs;
        per_client[c].push_back({*index, service->Execute(request)});
      }
    });
  }
  for (std::thread& t : clients) t.join();
  report.serve.window_seconds = Since(start);
  report.serve.cpu_seconds = CpuSeconds() - cpu_before;
  report.serve.peak_rss_mb = PeakRssMb();
  report.serve.retries = CounterValue("serve.retries") - retries_before;

  std::vector<size_t> served_index;
  std::vector<double> served_latency;
  for (const std::vector<Served>& served : per_client) {
    for (const Served& s : served) {
      report.serve.AddResponse(s.response);
      served_index.push_back(s.shape);
      served_latency.push_back(s.response.latency_seconds);
      std::string got;
      if (s.response.status.ok()) {
        got = w.kind == serve::QueryKind::kTopKRank
                  ? (s.response.rank.has_value() ? DumpRank(*s.response.rank)
                                                 : std::string())
                  : DumpCount(s.response.result);
      }
      report.outcomes.Add(s.response, &got, &reference[s.shape]);
    }
  }
  PrintShapeLatencies(w.shapes, served_index, served_latency);
  service.reset();
  if (flags.trace) {
    double unused = 0.0;
    TraceStatic(w, w.make_bundle(w.generate(), &unused), reference, &report);
  }
  return report;
}

StaticWorkload CountMix(const Flags& flags) {
  const size_t records = flags.tiny ? 300 : 2000;
  StaticWorkload w{[records] { return ServeCitations(records, kServeDataSeed); },
                   ServeBundle,
                   serve::QueryKind::kTopKCount,
                   {},
                   /*shuffle=*/true,
                   /*clients=*/2};
  for (int k : {1, 5, 10, 20}) {
    for (int r : {1, 3}) w.shapes.push_back({k, r});
  }
  // (K=10, R=1) twice per round puts the median inside one shape's
  // latencies instead of between two shapes' (measured on the seed:
  // K=1 ~5 ms, K=5 0.2-0.6 s, K=10 0.35-0.9 s, K=20 0.8-2 s).
  w.shapes.push_back({10, 1});
  return w;
}

StaticWorkload RankSweep(const Flags& flags) {
  const size_t records = flags.tiny ? 600 : 6000;
  StaticWorkload w{[records] { return Fig6Citations(records, kFig6DataSeed); },
                   Fig6Bundle,
                   serve::QueryKind::kTopKRank,
                   {},
                   /*shuffle=*/false,
                   /*clients=*/1};
  // Five K values, three of them expensive, so the median falls inside
  // K=300's latencies rather than among the cheap queries, whose first
  // runs still fill the index cache.
  const std::vector<int> ks = flags.tiny
                                  ? std::vector<int>{2, 10, 30, 60, 100}
                                  : std::vector<int>{10, 100, 300, 600, 1000};
  // The sweep order is fixed up to its starting point, which the seed
  // rotates.
  for (size_t i = 0; i < ks.size(); ++i) {
    w.shapes.push_back({ks[(i + flags.seed) % ks.size()], 1});
  }
  return w;
}

// ---------------------------------------------------------------------------
// online_ingest.

struct OnlineWorkload {
  Dataset mentions;  // Preload prefix, then the writer's mentions.
  size_t preload;
  double rate;  // Writer mentions per second.
  int64_t epoch_batch_ms;
  std::vector<Shape> shapes;  // One round of the query mix.
};

OnlineWorkload OnlineIngest(const Flags& flags) {
  OnlineWorkload w;
  w.preload = flags.tiny ? 300 : 3000;
  // A slow writer keeps the stream near its preloaded size over the window
  // (+500 mentions in 20 s), so per-query cost stays level and the median
  // does not drift with the window's length.
  w.rate = flags.tiny ? 40.0 : 25.0;
  // Epochs publish at most every 150 ms while a query takes ~50-500 ms, so
  // a repeated shape sometimes finds its cached answer still current: the
  // hit ratio settles around 0.3-0.4, inside (0, 1).
  w.epoch_batch_ms = 150;
  const size_t writer_max =
      static_cast<size_t>(std::ceil(w.rate * flags.seconds)) + 1;
  w.mentions = Fig6Citations(w.preload + writer_max, kFig6DataSeed);
  // One round, in a seeded order: the hot shape (the cheapest) 8 times,
  // then (10,1), (10,3), (20,1) once and (20,3) twice. Hits plus hot misses
  // make up ~60% of queries, so the median lands among the hot misses, and
  // the tail inside the (20,3) latencies.
  w.shapes = {{5, 1}, {5, 1}, {5, 1}, {5, 1}, {5, 1}, {5, 1}, {5, 1},
              {5, 1}, {10, 1}, {10, 3}, {20, 1}, {20, 3}, {20, 3}};
  return w;
}

std::unique_ptr<serve::QueryService> SetUpOnline(const OnlineWorkload& w,
                                                 const std::string& wal_dir,
                                                 SetupTimes* times) {
  std::filesystem::remove_all(wal_dir);
  std::filesystem::create_directories(wal_dir);
  const Clock::time_point start = Clock::now();
  serve::ServiceOptions options = BaseServiceOptions();
  options.cache.enabled = true;
  options.wal_dir = wal_dir;
  options.wal.fsync = serve::WalFsyncPolicy::kIntervalMs;
  // The 3000-mention preload takes 25-45 ms. An interval near that length
  // makes some preloads cross one inline fsync and others not, splitting
  // set-up times into two modes 40% apart; at 200 ms the preload never
  // syncs and Drain's single sync ends every set-up.
  options.wal.interval_ms = 200;
  options.epoch_batch_ms = w.epoch_batch_ms;
  auto service = std::make_unique<serve::QueryService>(options);
  const topkdup::Status registered =
      service->RegisterOnline("stream", MakeAuthorStream());
  if (!registered.ok()) {
    std::fprintf(stderr, "RegisterOnline: %s\n",
                 registered.ToString().c_str());
    std::exit(2);
  }
  times->register_s.push_back(Since(start));
  for (size_t i = 0; i < w.preload; ++i) {
    const topkdup::Status s = service->Ingest("stream", w.mentions[i]);
    if (!s.ok()) {
      std::fprintf(stderr, "preload ingest %zu: %s\n", i,
                   s.ToString().c_str());
      std::exit(2);
    }
  }
  service->Drain();  // Publishes the pending epoch and checkpoints.
  times->total.push_back(Since(start));
  times->corpus.push_back(0.0);  // Online streams build no corpus up front.
  return service;
}

Report RunOnline(const OnlineWorkload& w, const Flags& flags) {
  Report report;
  const std::string wal_root =
      flags.workdir + "/online-" + std::to_string(flags.seed);
  topkdup::SetParallelism(kOnlineThreads);
  std::printf("parallelism: %d threads\n", topkdup::ParallelismLevel());
  std::unique_ptr<serve::QueryService> service;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    service = SetUpOnline(w, wal_root + "/wal-" + std::to_string(i),
                          &report.setup);
  }
  const serve::ServiceOptions& options = service->options();
  std::printf("wal: fsync=%s interval_ms=%lld epoch_batch_ms=%lld dir=%s\n",
              serve::WalFsyncPolicyName(options.wal.fsync),
              static_cast<long long>(options.wal.interval_ms),
              static_cast<long long>(options.epoch_batch_ms),
              options.wal_dir.c_str());

  std::vector<serve::QueryResponse> responses;
  std::vector<size_t> response_shape;
  const uint64_t epochs_before = CounterValue("online.epochs_published");
  const uint64_t wal_bytes_before = CounterValue("serve.wal.bytes");
  const uint64_t fsyncs_before = CounterValue("serve.wal.fsyncs");
  const uint64_t retries_before = CounterValue("serve.retries");
  const double cpu_before = CpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + Seconds(flags.seconds);
  std::thread writer([&] {
    // Open loop: mention i is due at start + i / rate whether or not the
    // service kept up; latency counts from the due time.
    for (size_t i = 0; w.preload + i < w.mentions.size(); ++i) {
      const Clock::time_point due = start + Seconds(i / w.rate);
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      report.serve.generator_lag_max =
          std::max(report.serve.generator_lag_max,
                   std::chrono::duration<double>(sent - due).count());
      const topkdup::Status s =
          service->Ingest("stream", w.mentions[w.preload + i]);
      const Clock::time_point acked = Clock::now();
      if (!s.ok()) {
        // The stream no longer matches the generated sequence, so the
        // oracle's prefixes would be wrong: stop writing.
        std::fprintf(stderr, "ingest %zu: %s\n", i, s.ToString().c_str());
        ++report.serve.ingest_failed;
        return;
      }
      ++report.serve.ingested;
      report.serve.ingest_call.push_back(
          std::chrono::duration<double>(acked - sent).count());
      report.serve.ingest_ack.push_back(
          std::chrono::duration<double>(acked - due).count());
    }
  });
  std::thread client([&] {
    RoundSequence sequence(w.shapes.size(), /*shuffle=*/true, flags.seed, end);
    while (const std::optional<size_t> index = sequence.Next()) {
      serve::QueryRequest request;
      request.dataset = "stream";
      request.k = w.shapes[*index].k;
      request.r = w.shapes[*index].r;
      request.deadline_ms = kRequestDeadlineMs;
      request.allow_stale = false;
      responses.push_back(service->Execute(request));
      response_shape.push_back(*index);
    }
  });
  writer.join();
  client.join();
  report.serve.window_seconds = Since(start);
  report.serve.cpu_seconds = CpuSeconds() - cpu_before;
  report.serve.peak_rss_mb = PeakRssMb();  // Before the oracle's stream.
  report.serve.epochs_published =
      CounterValue("online.epochs_published") - epochs_before;
  report.serve.wal_bytes = CounterValue("serve.wal.bytes") - wal_bytes_before;
  report.serve.wal_fsyncs = CounterValue("serve.wal.fsyncs") - fsyncs_before;
  report.serve.retries = CounterValue("serve.retries") - retries_before;
  // Behind = some mention was sent more than ten inter-arrival gaps late:
  // the writer would have had to burst to catch up with its schedule.
  const bool generator_behind = report.serve.generator_lag_max > 10.0 / w.rate;
  std::printf(
      "ingest: rate=%.0f/s ingested=%llu failed=%llu generator_lag_max=%.6fs "
      "generator_behind=%d\n",
      w.rate, static_cast<unsigned long long>(report.serve.ingested),
      static_cast<unsigned long long>(report.serve.ingest_failed),
      report.serve.generator_lag_max, generator_behind ? 1 : 0);
  service.reset();
  std::filesystem::remove_all(wal_root);

  // Oracle: an in-memory stream grown to each sampled answer's mention
  // prefix, queried single-threaded. Keys are (prefix, k, r).
  using Key = std::tuple<uint64_t, int, int>;
  std::set<Key> keys;
  for (size_t i = 0; i < responses.size(); ++i) {
    if (responses[i].outcome == serve::ServedOutcome::kExact &&
        responses[i].status.ok()) {
      keys.insert({responses[i].epoch_mentions, w.shapes[response_shape[i]].k,
                   w.shapes[response_shape[i]].r});
    }
  }
  const size_t kSample = flags.tiny ? 6 : 16;
  std::vector<Key> all_keys(keys.begin(), keys.end());
  std::vector<Key> sampled;
  for (size_t i = 0; i < std::min(kSample, all_keys.size()); ++i) {
    sampled.push_back(
        all_keys[i * all_keys.size() / std::min(kSample, all_keys.size())]);
  }
  std::map<Key, std::string> reference;
  auto stream = MakeAuthorStream();
  topk::OnlineTopK::Snapshot snapshot;
  const Clock::time_point oracle_start = Clock::now();
  for (const Key& key : sampled) {
    const uint64_t prefix = std::get<0>(key);
    if (stream->mention_count() != prefix) {
      while (stream->mention_count() < prefix) {
        if (!stream->AddMention(w.mentions[stream->mention_count()]).ok()) {
          std::fprintf(stderr, "oracle stream ingest failed\n");
          std::exit(3);
        }
      }
      snapshot = stream->TakeSnapshot();
    }
    topk::TopKCountOptions options = CountOptions(
        {std::get<1>(key), std::get<2>(key)}, snapshot.reps.size());
    options.threads = 1;
    auto result = stream->QuerySnapshot(snapshot, options);
    if (!result.ok()) {
      std::fprintf(stderr, "reference online query: %s\n",
                   result.status().ToString().c_str());
      std::exit(3);
    }
    reference[key] = DumpCount(result.value());
    if (flags.trace) {
      options.threads = 0;
      const Clock::time_point untraced_start = Clock::now();
      auto untraced = stream->QuerySnapshot(snapshot, options);
      report.ledger.untraced_seconds += Since(untraced_start);
      if (!untraced.ok()) std::exit(3);
      if (DumpCount(ComposeOnline(snapshot, options, &report.ledger)) !=
          reference[key]) {
        ++report.trace_mismatched;
      }
    }
  }
  std::printf("cache: hits=%llu lookups=%llu\n",
              static_cast<unsigned long long>(std::count_if(
                  responses.begin(), responses.end(),
                  [](const serve::QueryResponse& r) { return r.cache == "hit"; })),
              static_cast<unsigned long long>(responses.size()));
  std::printf("oracle: %zu of %zu distinct (prefix,k,r) keys checked in %.3fs\n",
              sampled.size(), all_keys.size(), Since(oracle_start));

  std::vector<double> latency;
  for (const serve::QueryResponse& r : responses) {
    latency.push_back(r.latency_seconds);
  }
  PrintShapeLatencies(w.shapes, response_shape, latency);
  for (size_t i = 0; i < responses.size(); ++i) {
    const serve::QueryResponse& r = responses[i];
    report.serve.AddResponse(r);
    const Key key{r.epoch_mentions, w.shapes[response_shape[i]].k,
                  w.shapes[response_shape[i]].r};
    auto it = reference.find(key);
    const std::string got = r.status.ok() ? DumpCount(r.result) : "";
    report.outcomes.Add(r, &got, it == reference.end() ? nullptr : &it->second);
  }
  // A failed ingest is a failed operation too.
  report.outcomes.attempted +=
      report.serve.ingested + report.serve.ingest_failed;
  report.outcomes.errors += report.serve.ingest_failed;
  return report;
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: servebench --workload count_mix|rank_sweep|"
                 "online_ingest --seed N --seconds S --trace 0|1 "
                 "[--size full|tiny] [--workdir DIR]\n");
    return 2;
  }
  Report report;
  if (flags.workload == "count_mix") {
    report = RunStatic(CountMix(flags), flags);
  } else if (flags.workload == "rank_sweep") {
    report = RunStatic(RankSweep(flags), flags);
  } else if (flags.workload == "online_ingest") {
    report = RunOnline(OnlineIngest(flags), flags);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", flags.workload.c_str());
    return 2;
  }
  report.outcomes.Print("outcomes");
  const uint64_t failed = report.outcomes.failed() + report.trace_mismatched;
  std::printf("failed_share=%.6f window_s=%.3f\n",
              Ratio(static_cast<double>(failed),
                    static_cast<double>(report.outcomes.attempted)),
              report.serve.window_seconds);
  if (flags.trace) {
    std::printf("trace: queries=%d composed_mismatches=%llu\n",
                report.ledger.queries,
                static_cast<unsigned long long>(report.trace_mismatched));
  }
  const std::vector<Metric> metrics =
      flags.trace ? PerLayer(report) : EndToEnd(report);
  PrintJson(failed == 0 && report.outcomes.attempted > 0,
            std::max<uint64_t>(1, report.outcomes.attempted), failed, metrics);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
