#ifndef TOPKDUP_OBS_EXPLAIN_H_
#define TOPKDUP_OBS_EXPLAIN_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"

namespace topkdup::obs {

/// Query-level explain/introspection layer. Where common/metrics.h answers
/// "how much work did the pipeline do", this module answers "why did it
/// make a specific decision": which sufficient predicate merged a pair of
/// groups, which bound value killed a group against M, which Eq.-3 term
/// won an embedding slot, and how an answer's score decomposes.
///
/// The pipeline feeds an ExplainRecorder structured decision events;
/// Finish() assembles them into an ExplainReport renderable as a stable,
/// schema-versioned JSON document or an indented text report. Two cost
/// rules make it safe to leave compiled in:
///
///  - A null recorder costs one pointer test per potential event — the
///    explain-off path adds nothing measurable to the hot loops.
///  - Detail events are *sampled* by a deterministic hash of a stable
///    per-event key (group index, embedding step, winner representative),
///    never by an RNG, so the same events are captured at any thread
///    count and the volume is bounded by `sample_rate`. Section summaries
///    (counts, m, M, bounds) are always exact regardless of the rate.

/// One collapse merge: `loser` was folded into `winner` by the level's
/// sufficient predicate (the transitive closure of §4.1). Representatives
/// are record ids.
struct CollapseMergeExplain {
  size_t winner_rep = 0;
  size_t loser_rep = 0;
  double winner_weight = 0.0;
  double loser_weight = 0.0;
};

struct LevelCollapseExplain {
  size_t groups_in = 0;
  size_t groups_out = 0;
  std::vector<CollapseMergeExplain> sampled_merges;
};

/// One CPN lower-bound evaluation while locating m (§4.2): the prefix
/// size probed, the clique-partition bound it certified, and which search
/// phase asked ("gallop" or "binary_search").
struct CpnProbeExplain {
  size_t prefix = 0;
  int bound = 0;
  std::string phase;
};

struct LevelLowerBoundExplain {
  size_t m = 0;        // The prefix that fixed M.
  double M = 0.0;
  bool certified = false;
  size_t edges_examined = 0;
  size_t cpn_evaluations = 0;
  std::vector<CpnProbeExplain> probes;  // O(log n) — never sampled.
};

/// Which component of the §4.3 recursive upper bound decided a group's
/// fate in a prune pass.
enum class PruneVerdict {
  kKeptOwnWeight,      // weight >= M: the group can itself be an answer.
  kKeptBoundEarlyExit, // neighbor sum provably exceeded M before the scan
                       // finished (the early-exit fast path).
  kKeptBoundFull,      // full neighbor sum exceeded M.
  kPrunedBoundBelowM,  // upper bound <= M: discarded.
};

const char* PruneVerdictName(PruneVerdict verdict);

struct PruneDecisionExplain {
  int pass = 0;
  size_t group = 0;  // Index into the level's weight-sorted group list.
  size_t rep = 0;
  double weight = 0.0;
  double upper_bound = 0.0;  // The actual bound value compared against M.
  double M = 0.0;
  size_t neighbors_contributing = 0;  // N-passing alive neighbors summed.
  bool survived = false;
  PruneVerdict verdict = PruneVerdict::kPrunedBoundBelowM;
};

struct LevelPruneExplain {
  int passes = 0;
  double M = 0.0;
  size_t groups_in = 0;
  size_t groups_pruned = 0;  // Always exact; reconciles with LevelStats.
  size_t groups_out = 0;
  /// Sorted by (pass, group) — deterministic at any thread count.
  std::vector<PruneDecisionExplain> sampled_decisions;
};

struct LevelExplain {
  int level = 0;
  std::string sufficient_predicate;  // Empty when the level has none.
  std::string necessary_predicate;
  bool has_lower_bound = false;
  LevelCollapseExplain collapse;
  LevelLowerBoundExplain lower_bound;
  LevelPruneExplain prune;
};

/// One greedy-embedding placement (§5.3.1): the Eq.-3 aged affinity that
/// won the slot and the runner-up it beat. `runner_up` == items when no
/// other candidate had positive affinity.
struct EmbeddingPickExplain {
  size_t step = 0;
  size_t item = 0;
  double affinity = 0.0;
  size_t runner_up = 0;
  double runner_up_affinity = 0.0;
  bool new_region = false;  // Seeded by weight, not affinity.
};

struct EmbeddingExplain {
  size_t items = 0;
  double alpha = 0.0;
  size_t regions = 0;  // Number of affinity-less restarts (incl. first).
  std::vector<EmbeddingPickExplain> sampled_picks;
};

/// Segmentation-DP summary (§5.3.2): score-table dimensions and the
/// boundaries (inclusive span ends) of the best and runner-up full
/// segmentations.
struct SegmentDpExplain {
  size_t rows = 0;
  size_t band = 0;
  size_t cells_filled = 0;
  size_t answers_found = 0;
  std::vector<size_t> best_boundaries;
  std::vector<size_t> runner_up_boundaries;
};

/// How a query deadline degraded the run: the stage that stopped, the
/// level it stopped at, and how much of the work budget was spent. Only
/// rendered when the report's `has_degradation` flag is set, so reports
/// from undegraded runs are byte-identical to pre-deadline builds.
struct DegradationExplain {
  std::string stage;      // "collapse", "lower_bound", "prune", "segment".
  int level = 0;          // 1-based predicate level (0 for segment stage).
  std::string reason;     // DeadlineReasonName of the expiry cause.
  uint64_t work_done = 0;
  uint64_t work_budget = 0;  // 0 when only a wall-clock deadline was set.
  bool partial_stage = false;  // Expired mid-stage vs at a stage boundary.
};

/// Measured resource consumption of the query, as stamped by the serve
/// layer from its per-query ResourceMeter. Only rendered when
/// `has_resources` is set, so reports from non-serve paths stay
/// byte-identical to pre-attribution builds.
struct ResourceExplain {
  double cpu_ms = 0.0;
  /// Per-stage CPU milliseconds, sorted by stage name; the stage sum
  /// equals cpu_ms up to print rounding (see DESIGN.md §6i).
  std::vector<std::pair<std::string, double>> stages_ms;
};

/// Per-group score decomposition of one returned answer.
struct AnswerGroupExplain {
  double weight = 0.0;
  size_t representative = 0;
  size_t member_count = 0;
  size_t span_begin = 0;  // Embedding positions, inclusive.
  size_t span_end = 0;
  double segment_score = 0.0;  // S(span): this group's score contribution.
};

struct AnswerExplain {
  int rank = 0;
  double score = 0.0;
  double threshold = 0.0;
  double posterior = 0.0;
  std::vector<AnswerGroupExplain> groups;
};

/// The assembled per-query report. JSON schema is versioned like
/// WriteBenchJson's: bump kSchemaVersion on breaking field changes.
struct ExplainReport {
  static constexpr int kSchemaVersion = 1;

  /// Service-assigned query id (serve::QueryResponse::query_id), so a
  /// report fished out of the admin server's slow-query capture joins
  /// against the same query's request-log line and trace spans. 0 — the
  /// non-serve paths — renders nothing, keeping standalone reports
  /// byte-identical to pre-serve builds.
  uint64_t query_id = 0;
  /// Ingest epoch the query's pinned snapshot was published at (online
  /// datasets via the serve layer; 0 — static/standalone — renders
  /// nothing, like query_id).
  uint64_t epoch = 0;
  double sample_rate = 1.0;
  std::vector<LevelExplain> levels;
  bool has_embedding = false;
  EmbeddingExplain embedding;
  bool has_segment_dp = false;
  SegmentDpExplain segment_dp;
  std::vector<AnswerExplain> answers;
  bool has_degradation = false;
  DegradationExplain degradation;
  bool has_resources = false;
  ResourceExplain resources;
  /// Detail events discarded after the per-report cap; summaries stay
  /// exact even when this is non-zero.
  size_t events_dropped = 0;

  /// Stable single-document JSON ({"schema_version":1,...}).
  std::string ToJson() const;
  /// Indented human-readable rendering of the same content.
  std::string ToText() const;
};

/// Per-query event sink. One recorder serves one query: the serial driver
/// (PrunedDedup / TopKCountQuery) opens levels and records summaries;
/// parallel workers append sampled detail events concurrently (appends
/// take a mutex — explain is a debugging mode, and sampling bounds the
/// contention). Finish() sorts the concurrent sections into their
/// deterministic order and returns the report.
class ExplainRecorder {
 public:
  explicit ExplainRecorder(double sample_rate = 1.0);

  double sample_rate() const { return sample_rate_; }

  /// Stamps the report with the owning service query id (see
  /// ExplainReport::query_id). Serial (driver) only.
  void set_query_id(uint64_t query_id);

  /// Deterministic sampling decision for a stable event key: true for the
  /// same keys at any thread count or interleaving.
  bool SampleKey(uint64_t key) const;

  /// Opens the next predicate level; subsequent level-scoped events land
  /// there. Serial (driver loop) only.
  void BeginLevel(std::string sufficient_predicate,
                  std::string necessary_predicate, bool has_lower_bound);

  void RecordCollapseSummary(size_t groups_in, size_t groups_out);
  void RecordCollapseMerge(const CollapseMergeExplain& event);  // Thread-safe.
  void RecordCpnProbe(size_t prefix, int bound, const char* phase);
  void RecordLowerBound(size_t m, double M, bool certified,
                        size_t edges_examined, size_t cpn_evaluations);
  void RecordPruneSummary(int passes, double M, size_t groups_in,
                          size_t groups_out);
  void RecordPruneDecision(const PruneDecisionExplain& event);  // Thread-safe.

  void RecordEmbeddingSummary(size_t items, double alpha, size_t regions);
  void RecordEmbeddingPick(const EmbeddingPickExplain& event);
  void RecordSegmentDp(SegmentDpExplain summary);
  void RecordAnswer(AnswerExplain answer);

  /// Records how the query's deadline degraded the run. At most one
  /// degradation is kept per report (the first — later stages never run
  /// once the pipeline stops).
  void RecordDegradation(const DegradationInfo& info);

  /// Sorts concurrent sections deterministically and returns the report.
  /// The recorder is spent afterwards.
  ExplainReport Finish();

 private:
  /// Returns the level events should land in, creating an implicit one
  /// for callers used outside a PrunedDedup driver. mu_ must be held.
  LevelExplain& CurrentLevelLocked();
  bool AdmitDetailLocked();

  double sample_rate_;
  std::mutex mu_;
  ExplainReport report_;
  size_t detail_events_ = 0;
};

}  // namespace topkdup::obs

#endif  // TOPKDUP_OBS_EXPLAIN_H_
