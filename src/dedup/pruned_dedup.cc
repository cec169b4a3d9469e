#include "dedup/pruned_dedup.h"

#include <optional>
#include <string>
#include <utility>

#include "common/faultpoint.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/resource_meter.h"
#include "common/timer.h"
#include "common/trace.h"
#include "dedup/collapse.h"
#include "dedup/lower_bound.h"
#include "obs/explain.h"

namespace topkdup::dedup {

namespace {

/// This query's own work behind one level's LevelStats counters, read off
/// its meter (common/resource_meter.h), so concurrent queries never leak
/// into each other's stats.
struct LevelWork {
  uint64_t probes, evals, scanned, decoded, blocks_decoded, blocks_skipped;
};

LevelWork ReadLevelWork(const resource::ResourceMeter& meter) {
  return {meter.WorkUnits("predicates.blocked_index.candidates"),
          meter.WorkUnits("dedup.collapse.pair_evals") +
              meter.WorkUnits("dedup.lower_bound.pair_evals") +
              meter.WorkUnits("dedup.prune.pair_evals"),
          meter.WorkUnits("predicates.blocked_index.postings_scanned"),
          meter.WorkUnits("predicates.blocked_index.postings_decoded"),
          meter.WorkUnits("predicates.blocked_index.blocks_decoded"),
          meter.WorkUnits("predicates.blocked_index.blocks_skipped")};
}

}  // namespace

StatusOr<PrunedDedupResult> PrunedDedupFromGroups(
    std::vector<Group> groups, const std::vector<PredicateLevel>& levels,
    const PrunedDedupOptions& options, const QueryContext& ctx) {
  if (options.k < 1) {
    return Status::InvalidArgument("PrunedDedup: k must be >= 1");
  }
  if (options.prune_passes < 1) {
    return Status::InvalidArgument("PrunedDedup: prune_passes must be >= 1");
  }
  if (levels.empty()) {
    return Status::InvalidArgument("PrunedDedup: at least one level");
  }
  ScopedParallelism parallelism(options.threads);
  const Deadline* deadline = ctx.deadline;
  obs::ExplainRecorder* recorder = ctx.explain;
  // Receives soft failures reported by code below us with no Status
  // channel (the thread pool's fault site); checked after each stage.
  ScopedSoftFailHandler soft_fail;
  // LevelStats read the attached meter (the serve path's per-request
  // one); direct library calls get a local one.
  resource::ResourceMeter local_meter;
  std::optional<resource::ScopedMeterAttach> local_attach;
  const resource::ResourceMeter* meter =
      resource::internal::CurrentAttribution().meter;
  if (meter == nullptr) {
    local_attach.emplace(&local_meter);
    meter = &local_meter;
  }
  trace::Span pipeline_span("dedup.pruned_dedup");
  pipeline_span.AddArg("k", options.k);
  pipeline_span.AddArg("levels", static_cast<int64_t>(levels.size()));
  pipeline_span.AddArg("groups_in", static_cast<int64_t>(groups.size()));
  if (ctx.query_id != 0) {
    pipeline_span.AddArg("query_id", static_cast<int64_t>(ctx.query_id));
  }

  PrunedDedupResult result;
  result.upper_bounds.assign(groups.size(), 0.0);

  for (size_t level_index = 0; level_index < levels.size(); ++level_index) {
    const PredicateLevel& level = levels[level_index];
    const int level_1based = static_cast<int>(level_index) + 1;
    // Level boundary: stopping here leaves the previous level's output —
    // a complete, consistent pipeline state — as the answer.
    if (deadline != nullptr && deadline->Expired()) {
      MarkDegraded(*deadline, "collapse", level_1based,
                   /*partial_stage=*/false, &result.degradation);
      break;
    }
    LevelStats stats;
    trace::Span level_span("dedup.level");
    level_span.AddArg("level", static_cast<int64_t>(level_index));
    const LevelWork work_before = ReadLevelWork(*meter);
    const size_t groups_before = groups.size();
    if (recorder != nullptr) {
      recorder->BeginLevel(
          level.sufficient != nullptr ? std::string(level.sufficient->name())
                                      : std::string(),
          level.necessary != nullptr ? std::string(level.necessary->name())
                                     : std::string(),
          level.necessary != nullptr);
    }
    Timer timer;
    bool stopped = false;

    if (level.sufficient != nullptr) {
      TOPKDUP_FAULT_RETURN_IF("dedup.collapse");
      groups = Collapse(groups, *level.sufficient, recorder, deadline,
                        options.index_cache);
      if (soft_fail.triggered()) return soft_fail.status();
      if (deadline != nullptr && deadline->Expired()) {
        // The closure may be missing edges from skipped shards: a valid
        // but under-collapsed partition. Bounds from previous levels no
        // longer align with these groups.
        MarkDegraded(*deadline, "collapse", level_1based,
                     /*partial_stage=*/true, &result.degradation);
        result.upper_bounds.clear();
        result.upper_bounds_unconditional = false;
        stopped = true;
      }
    } else if (recorder != nullptr) {
      recorder->RecordCollapseSummary(groups_before, groups_before);
    }
    stats.collapse_seconds = timer.ElapsedSeconds();
    stats.n_after_collapse = groups.size();
    stats.records_collapsed = groups_before - groups.size();

    if (!stopped && level.necessary != nullptr) {
      TOPKDUP_FAULT_RETURN_IF("dedup.lower_bound");
      timer.Reset();
      LowerBoundOptions lb_options;
      lb_options.index_cache = options.index_cache;
      const LowerBoundResult lb = EstimateLowerBound(
          groups, *level.necessary, options.k, lb_options, ctx);
      stats.lower_bound_seconds = timer.ElapsedSeconds();
      stats.m = lb.m;
      stats.M = lb.M;
      stats.cpn_growth_iterations = lb.cpn_evaluations;
      stats.cpn_edges_examined = lb.edges_examined;
      if (lb.degraded || (deadline != nullptr && deadline->Expired())) {
        // Collapse at this level completed, so the groups are a fully
        // collapsed partition; only the search for (m, M) stopped early.
        // Previous-level bounds no longer align with the new partition.
        MarkDegraded(*deadline, "lower_bound", level_1based,
                     /*partial_stage=*/lb.degraded, &result.degradation);
        result.upper_bounds.clear();
        result.upper_bounds_unconditional = false;
        stopped = true;
      }

      if (!stopped) {
        TOPKDUP_FAULT_RETURN_IF("dedup.prune");
        timer.Reset();
        PruneOptions prune_options;
        prune_options.passes = options.prune_passes;
        prune_options.index_cache = options.index_cache;
        PruneResult pruned =
            PruneGroups(groups, *level.necessary, lb.M, prune_options,
                        options.exact_bounds, ctx);
        if (soft_fail.triggered()) return soft_fail.status();
        stats.prune_seconds = timer.ElapsedSeconds();
        stats.groups_pruned = groups.size() - pruned.groups.size();
        groups = std::move(pruned.groups);
        result.upper_bounds = std::move(pruned.upper_bounds);
        result.upper_bounds_unconditional = pruned.unconditional_bounds;
        if (pruned.degraded ||
            (deadline != nullptr && deadline->Expired())) {
          // A degraded prune only under-prunes; its survivors and bounds
          // are consistent, so they stand as the final state. Only a
          // mid-pass shard skip makes the stage itself partial — a stop
          // at a between-pass boundary (or a budget exhausted during the
          // final pass) leaves a cleanly completed prune state.
          MarkDegraded(*deadline, "prune", level_1based,
                       /*partial_stage=*/pruned.pass_skipped,
                       &result.degradation);
          stopped = true;
        }
      }
    } else if (!stopped) {
      stats.m = groups.size();
      stats.M = groups.empty() ? 0.0 : groups.back().weight;
      result.upper_bounds.assign(groups.size(), 0.0);
      result.upper_bounds_unconditional = false;
    }
    stats.n_after_prune = groups.size();
    const LevelWork work_after = ReadLevelWork(*meter);
    stats.blocking_probes = work_after.probes - work_before.probes;
    stats.predicate_evals = work_after.evals - work_before.evals;
    stats.postings_scanned = work_after.scanned - work_before.scanned;
    stats.postings_decoded = work_after.decoded - work_before.decoded;
    stats.blocks_decoded =
        work_after.blocks_decoded - work_before.blocks_decoded;
    stats.blocks_skipped =
        work_after.blocks_skipped - work_before.blocks_skipped;
    TOPKDUP_LOG(Debug) << "PrunedDedup level " << level_index
                       << ": n=" << stats.n_after_collapse
                       << " m=" << stats.m << " M=" << stats.M
                       << " n'=" << stats.n_after_prune
                       << " collapsed=" << stats.records_collapsed
                       << " pruned=" << stats.groups_pruned
                       << " probes=" << stats.blocking_probes
                       << " evals=" << stats.predicate_evals;
    result.levels.push_back(stats);
    if (stopped) break;

    if (groups.size() == static_cast<size_t>(options.k)) {
      result.exact = true;
      break;
    }
  }

  result.groups = std::move(groups);
  if (result.degradation.degraded && recorder != nullptr) {
    recorder->RecordDegradation(result.degradation);
  }
  pipeline_span.AddArg("groups_out",
                       static_cast<int64_t>(result.groups.size()));
  return result;
}

StatusOr<PrunedDedupResult> PrunedDedup(
    const record::Dataset& data, const std::vector<PredicateLevel>& levels,
    const PrunedDedupOptions& options, const QueryContext& ctx) {
  return PrunedDedupFromGroups(MakeSingletonGroups(data), levels, options,
                               ctx);
}

}  // namespace topkdup::dedup
