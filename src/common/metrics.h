#ifndef TOPKDUP_COMMON_METRICS_H_
#define TOPKDUP_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace topkdup::metrics {
class Counter;
}  // namespace topkdup::metrics

namespace topkdup::resource::internal {

/// The calling thread's pending work for its attached resource meter
/// (common/resource_meter.h); non-null exactly while a meter is attached.
class WorkTally;
extern constinit thread_local WorkTally* t_work_tally;
/// Adds `delta` units of `counter` to `tally`. Lock- and allocation-free.
void TallyWork(WorkTally* tally, const metrics::Counter& counter,
               uint64_t delta);

}  // namespace topkdup::resource::internal

namespace topkdup::metrics {

/// Number of independent per-thread shards a hot-path metric is striped
/// across. Threads hash onto shards, so concurrent increments from the
/// parallel pipelines (common/parallel.h) almost never contend; a snapshot
/// merges the shards. Power of two.
inline constexpr size_t kStripes = 16;

/// Shard index of the calling thread (stable per thread).
size_t StripeIndex();

namespace internal {

/// Relaxed-CAS add on a double stored as its bit pattern (portable
/// atomic<double>::fetch_add).
void AtomicAddDouble(std::atomic<uint64_t>* bits, double delta);
double LoadDouble(const std::atomic<uint64_t>& bits);

struct alignas(64) CounterCell {
  std::atomic<uint64_t> value{0};
};

}  // namespace internal

/// Monotonically increasing counter. Add() is a relaxed atomic add on the
/// calling thread's stripe (lock-free, no false sharing); Value() sums the
/// stripes. While a resource meter is attached to the calling thread, Add()
/// also charges the increment to that meter under the counter's name —
/// the per-query work ledger; with none attached that costs one
/// thread-local load and a branch. Handles returned by the Registry are
/// valid for the process lifetime — cache them outside hot loops and batch
/// increments where a loop-local accumulator is available.
class Counter {
 public:
  void Add(uint64_t delta) {
    cells_[StripeIndex()].value.fetch_add(delta, std::memory_order_relaxed);
    if (resource::internal::WorkTally* tally =
            resource::internal::t_work_tally) {
      resource::internal::TallyWork(tally, *this, delta);
    }
  }
  void Increment() { Add(1); }
  uint64_t Value() const;
  const std::string& name() const { return name_; }
  /// Registration ordinal: 0 for the first counter the registry created,
  /// then 1, 2, ... Dense, so per-thread tallies can index by it.
  uint32_t id() const { return id_; }

 private:
  friend class Registry;
  Counter(std::string name, uint32_t id) : name_(std::move(name)), id_(id) {}
  void Reset();

  std::string name_;
  uint32_t id_;
  std::array<internal::CounterCell, kStripes> cells_;
};

/// Last-write-wins instantaneous value (double-valued so it can carry
/// bound qualities like M as well as integral depths).
class Gauge {
 public:
  void Set(double value);
  void Add(double delta) { internal::AtomicAddDouble(&bits_, delta); }
  double Value() const { return internal::LoadDouble(bits_); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  void Reset();

  std::string name_;
  std::atomic<uint64_t> bits_{0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i], plus
/// one implicit overflow bucket. Observation counts and the running sum are
/// striped like Counter.
class Histogram {
 public:
  void Observe(double value);
  uint64_t TotalCount() const;
  double Sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, size bounds().size() + 1 (last = overflow).
  std::vector<uint64_t> BucketCounts() const;
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  Histogram(std::string name, std::vector<double> bounds);
  void Reset();

  struct alignas(64) Stripe {
    std::vector<std::atomic<uint64_t>> counts;
    std::atomic<uint64_t> total{0};
    std::atomic<uint64_t> sum_bits{0};
  };

  std::string name_;
  std::vector<double> bounds_;
  std::array<Stripe, kStripes> stripes_;
};

/// Exponential bounds suited to wall-time observations in seconds
/// (1us .. ~100s, 4 buckets per decade).
const std::vector<double>& LatencySecondsBounds();

/// RAII wall-clock timer observing its lifetime (seconds) into a
/// histogram. A null histogram makes it a no-op.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(histogram), start_(Clock::now()) {}
  ~ScopedTimer() { Stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Records now instead of at destruction; returns the elapsed seconds.
  double Stop();

 private:
  using Clock = std::chrono::steady_clock;
  Histogram* histogram_;
  Clock::time_point start_;
};

struct CounterSample {
  std::string name;
  uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::vector<double> bounds;
  std::vector<uint64_t> counts;  // bounds.size() + 1 entries.
  uint64_t count = 0;
  double sum = 0.0;
};

/// Point-in-time copy of every registered metric, sorted by name (so two
/// snapshots of the same registry state compare equal field-for-field).
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Value of a counter in this snapshot; 0 when absent.
  uint64_t CounterValue(std::string_view name) const;

  /// Compact single-line JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{...}} — embeddable in
  /// larger documents (the bench exporter) or written standalone.
  std::string ToJson() const;
};

/// Process-wide registry. Metric handles are created once under a mutex
/// and never invalidated; the increment fast paths never take the lock.
class Registry {
 public:
  static Registry& Global();

  /// Returns the counter/gauge registered under `name`, creating it on
  /// first use. Same name always returns the same handle.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// `bounds` must be strictly increasing; ignored when the histogram
  /// already exists.
  Histogram* GetHistogram(std::string_view name, std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric's value (handles stay valid). Tests and
  /// repeated-run benches use this to scope measurements.
  void Reset();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Writes `snapshot.ToJson()` to `path`; returns false (and logs an
/// error) when the file cannot be written.
bool WriteSnapshotJson(const MetricsSnapshot& snapshot,
                       const std::string& path);

/// Prometheus text exposition (v0.0.4, scrape-compatible with OpenMetrics
/// consumers) of a snapshot. Metric names are sanitized (characters
/// outside [a-zA-Z0-9_:] become '_') and prefixed `topkdup_`; counters get
/// the conventional `_total` suffix; histograms emit *cumulative*
/// `_bucket{le="..."}` series (the registry's buckets are already
/// inclusive upper bounds) plus the `le="+Inf"` bucket, `_sum`, and
/// `_count`. Values print with enough digits to round-trip doubles.
/// Dynamic families whose registry names end in an open-ended value (the
/// serve layer's per-dataset breaker gauges, per-reason shed counters,
/// per-outcome latency histograms, and the admin server's per-endpoint
/// counters) render as labeled series of one family, with label values
/// escaped per the exposition format.
std::string PrometheusText(const MetricsSnapshot& snapshot);

/// Writes `PrometheusText(snapshot)` to `path` (e.g. for a node-exporter
/// textfile collector); returns false and logs when the write fails.
bool WritePrometheusText(const MetricsSnapshot& snapshot,
                         const std::string& path);

}  // namespace topkdup::metrics

#endif  // TOPKDUP_COMMON_METRICS_H_
