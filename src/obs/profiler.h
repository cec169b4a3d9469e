#ifndef TOPKDUP_OBS_PROFILER_H_
#define TOPKDUP_OBS_PROFILER_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace topkdup::obs {

/// Sampling-profiler session parameters.
struct ProfilerOptions {
  /// SIGPROF delivery rate (ITIMER_PROF fires per `1/hz` seconds of
  /// *process CPU*, so an idle process takes no samples and costs
  /// nothing). 99 Hz, the pprof convention, avoids lockstep with 100 Hz
  /// periodic work. Clamped to [1, 1000].
  int hz = 99;
};

/// On-demand SIGPROF sampling CPU profiler for the resident process,
/// producing collapsed-stack text ("frame;frame;frame count" per line)
/// that flamegraph.pl renders directly. One global instance — signal
/// dispositions and ITIMER_PROF are process-wide state, so there is
/// nothing per-object to own.
///
/// Signal-safety contract (see DESIGN.md §6i): the handler touches only
/// pre-allocated striped sample slabs claimed by atomic cursor
/// (lock-free, no malloc, no locks), calls backtrace() — primed once at
/// arm time so libgcc's lazy initialization (which allocates) happens
/// outside signal context — and saves/restores errno. Symbolization and
/// demangling are deferred to Stop(), which runs on a normal thread.
/// When disarmed the handler is uninstalled entirely, so the steady-state
/// cost of having the profiler linked in is zero; during teardown a
/// straggler signal costs one atomic load and a branch.
class Profiler {
 public:
  static Profiler& Global();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Arms the profiler: installs the SIGPROF handler and starts
  /// ITIMER_PROF. Fails with FailedPrecondition if already armed.
  Status Start(const ProfilerOptions& options = {});

  /// Disarms (timer off, pending SIGPROF discarded, previous disposition
  /// restored) and returns the collapsed-stack rendering of every sample
  /// taken since Start(): root-first frames joined by ';', a space, and
  /// the sample count, one line per unique stack, sorted descending by
  /// count. Empty string when no samples were taken (an idle process).
  std::string Stop();

  /// Convenience for the admin endpoint: Start(), sleep `seconds`
  /// (clamped to [0.05, 30]), Stop(). Samples accumulate from every
  /// thread the kernel bills CPU to during the window.
  StatusOr<std::string> Collect(double seconds,
                                const ProfilerOptions& options = {});

  bool armed() const;
  /// Samples captured in the current/most recent session.
  uint64_t SamplesTaken() const;
  /// Samples lost to slab exhaustion in the current/most recent session.
  uint64_t SamplesDropped() const;

 private:
  Profiler() = default;
};

}  // namespace topkdup::obs

#endif  // TOPKDUP_OBS_PROFILER_H_
