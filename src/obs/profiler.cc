#include "obs/profiler.h"

#include <cxxabi.h>
#include <execinfo.h>
#include <sched.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/strings.h"

namespace topkdup::obs {

namespace {

constexpr int kMaxFrames = 48;
/// Frames the handler itself contributes to every backtrace: the handler
/// and the kernel signal trampoline (__restore_rt). Dropped at collapse
/// time so stacks start at the interrupted frame.
constexpr int kSkipFrames = 2;
constexpr int kStripes = 16;
/// Preallocated sample slots across all stripes; samples beyond this are
/// counted as dropped, never buffered. 65536 slots ≈ 25 MB and eleven
/// minutes of 99 Hz samples.
constexpr size_t kMaxSamples = 65536;

struct Sample {
  void* frames[kMaxFrames];
  int depth = 0;
};

/// One per-thread-group sample slab. Threads hash to a stripe by kernel
/// tid; the handler claims a slot with one relaxed fetch_add — no locks,
/// no allocation, so concurrently sampled threads never contend on a
/// shared cursor.
struct Stripe {
  std::atomic<uint32_t> cursor{0};
  Sample* slots = nullptr;   // Points into `slab`; read by the handler.
  uint32_t capacity = 0;     // Published before g_armed; read by handler.
  std::vector<Sample> slab;  // Owned storage, sized at Start().
};

Stripe g_stripes[kStripes];

/// seq_cst flag + inflight count let Stop() quiesce straggler handlers:
/// a handler that observes g_armed after raising g_inflight is guaranteed
/// to be waited out before the slabs are read or released.
std::atomic<bool> g_armed{false};
std::atomic<int> g_inflight{0};
std::atomic<uint64_t> g_dropped{0};

/// Control-plane state, all under ControlMutex().
bool g_session_open = false;
uint64_t g_last_taken = 0;
uint64_t g_last_dropped = 0;
struct sigaction g_old_action;

std::mutex& ControlMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

int StripeIndex() {
  thread_local int stripe = -1;
  if (stripe < 0) {
    stripe = static_cast<int>(
        static_cast<uint64_t>(::syscall(SYS_gettid)) % kStripes);
  }
  return stripe;
}

/// Async-signal-safe by construction: atomics, a claimed preallocated
/// slot, and backtrace() (primed at arm time so its one-time lazy
/// initialization, which allocates, ran outside signal context). errno is
/// preserved for the interrupted code.
void SigprofHandler(int /*signo*/, siginfo_t* /*info*/, void* /*ucontext*/) {
  if (!g_armed.load(std::memory_order_seq_cst)) return;
  const int saved_errno = errno;
  g_inflight.fetch_add(1, std::memory_order_seq_cst);
  if (g_armed.load(std::memory_order_seq_cst)) {
    Stripe& stripe = g_stripes[StripeIndex()];
    const uint32_t idx =
        stripe.cursor.fetch_add(1, std::memory_order_relaxed);
    if (idx < stripe.capacity) {
      Sample& sample = stripe.slots[idx];
      const int depth = ::backtrace(sample.frames, kMaxFrames);
      sample.depth = depth > 0 ? depth : 0;
    } else {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  g_inflight.fetch_sub(1, std::memory_order_seq_cst);
  errno = saved_errno;
}

uint64_t TakenLocked() {
  uint64_t taken = 0;
  for (const Stripe& stripe : g_stripes) {
    taken += std::min<uint64_t>(
        stripe.cursor.load(std::memory_order_seq_cst), stripe.capacity);
  }
  return taken;
}

/// "binary(_ZN4...+0x1f) [0x...]" → demangled symbol, cleaned for the
/// collapsed-stack format (no ';', no spaces, parameter list dropped).
std::string SymbolizeFrame(void* addr) {
  std::string name;
  char** symbols = ::backtrace_symbols(&addr, 1);
  if (symbols != nullptr) {
    const std::string raw = symbols[0];
    std::free(symbols);
    const size_t open = raw.find('(');
    if (open != std::string::npos) {
      size_t end = raw.find('+', open + 1);
      if (end == std::string::npos) end = raw.find(')', open + 1);
      if (end != std::string::npos && end > open + 1) {
        const std::string mangled = raw.substr(open + 1, end - open - 1);
        int status = -1;
        char* demangled =
            abi::__cxa_demangle(mangled.c_str(), nullptr, nullptr, &status);
        if (status == 0 && demangled != nullptr) {
          name = demangled;
        } else {
          name = mangled;
        }
        std::free(demangled);
      }
    }
  }
  if (name.empty()) {
    return StrFormat("0x%llx",
                     static_cast<unsigned long long>(
                         reinterpret_cast<uintptr_t>(addr)));
  }
  // Drop the parameter list and scrub the two characters the collapsed
  // format reserves (';' separates frames, ' ' separates the count).
  const size_t paren = name.find('(');
  if (paren != std::string::npos && paren > 0) name.resize(paren);
  for (char& c : name) {
    if (c == ';' || c == ' ') c = ':';
  }
  return name;
}

/// Aggregates the session's samples into collapsed-stack lines:
/// root-first frames joined by ';', " <count>", sorted by count
/// descending then stack text, so identical sample sets render
/// identically.
std::string CollapseLocked() {
  std::map<std::vector<void*>, uint64_t> counts;
  for (const Stripe& stripe : g_stripes) {
    const uint32_t filled = std::min<uint32_t>(
        stripe.cursor.load(std::memory_order_seq_cst), stripe.capacity);
    for (uint32_t i = 0; i < filled; ++i) {
      const Sample& sample = stripe.slots[i];
      if (sample.depth <= 0) continue;
      const int begin = sample.depth > kSkipFrames ? kSkipFrames : 0;
      std::vector<void*> stack(sample.frames + begin,
                               sample.frames + sample.depth);
      std::reverse(stack.begin(), stack.end());  // Leaf-first → root-first.
      ++counts[std::move(stack)];
    }
  }
  if (counts.empty()) return "";

  std::map<void*, std::string> names;
  for (const auto& [stack, count] : counts) {
    for (void* addr : stack) {
      if (names.find(addr) == names.end()) names[addr] = SymbolizeFrame(addr);
    }
  }

  std::vector<std::pair<std::string, uint64_t>> lines;
  lines.reserve(counts.size());
  for (const auto& [stack, count] : counts) {
    std::string line;
    for (size_t i = 0; i < stack.size(); ++i) {
      if (i > 0) line += ';';
      line += names[stack[i]];
    }
    lines.emplace_back(std::move(line), count);
  }
  std::sort(lines.begin(), lines.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });

  std::string out;
  for (const auto& [stack, count] : lines) {
    out += stack;
    out += StrFormat(" %llu\n", static_cast<unsigned long long>(count));
  }
  return out;
}

}  // namespace

Profiler& Profiler::Global() {
  static Profiler* instance = new Profiler();
  return *instance;
}

Status Profiler::Start(const ProfilerOptions& options) {
  std::lock_guard<std::mutex> lock(ControlMutex());
  if (g_session_open) {
    return Status::FailedPrecondition("profiler already armed");
  }
  const int hz = std::clamp(options.hz, 1, 1000);
  const uint32_t per_stripe =
      static_cast<uint32_t>((kMaxSamples + kStripes - 1) / kStripes);
  for (Stripe& stripe : g_stripes) {
    stripe.slab.assign(per_stripe, Sample{});
    stripe.slots = stripe.slab.data();
    stripe.capacity = per_stripe;
    stripe.cursor.store(0, std::memory_order_seq_cst);
  }
  g_dropped.store(0, std::memory_order_seq_cst);

  // Prime backtrace: its first call lazily loads the unwinder (libgcc),
  // which allocates — do it here, never in the handler.
  void* warm[4];
  (void)::backtrace(warm, 4);

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = SigprofHandler;
  action.sa_flags = SA_RESTART | SA_SIGINFO;
  sigemptyset(&action.sa_mask);
  if (::sigaction(SIGPROF, &action, &g_old_action) != 0) {
    return Status::Internal("profiler: sigaction failed");
  }
  g_armed.store(true, std::memory_order_seq_cst);

  itimerval timer;
  std::memset(&timer, 0, sizeof(timer));
  const long interval_us = std::max(1000000L / hz, 1000L);
  timer.it_interval.tv_sec = interval_us / 1000000;
  timer.it_interval.tv_usec = interval_us % 1000000;
  timer.it_value = timer.it_interval;
  if (::setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    g_armed.store(false, std::memory_order_seq_cst);
    ::sigaction(SIGPROF, &g_old_action, nullptr);
    return Status::Internal("profiler: setitimer failed");
  }

  g_session_open = true;
  metrics::Registry::Global().GetCounter("obs.profiler.sessions")
      ->Increment();
  return Status::OK();
}

std::string Profiler::Stop() {
  std::lock_guard<std::mutex> lock(ControlMutex());
  if (!g_session_open) return "";

  itimerval off;
  std::memset(&off, 0, sizeof(off));
  ::setitimer(ITIMER_PROF, &off, nullptr);
  g_armed.store(false, std::memory_order_seq_cst);
  // Discard any SIGPROF still pending before the old disposition (often
  // SIG_DFL, which terminates the process) comes back: SIG_IGN drops
  // pending occurrences by POSIX rule.
  ::signal(SIGPROF, SIG_IGN);
  while (g_inflight.load(std::memory_order_seq_cst) != 0) ::sched_yield();
  ::sigaction(SIGPROF, &g_old_action, nullptr);

  g_last_taken = TakenLocked();
  g_last_dropped = g_dropped.load(std::memory_order_seq_cst);
  auto& registry = metrics::Registry::Global();
  registry.GetCounter("obs.profiler.samples")->Add(g_last_taken);
  registry.GetCounter("obs.profiler.dropped")->Add(g_last_dropped);

  std::string collapsed = CollapseLocked();
  for (Stripe& stripe : g_stripes) {
    stripe.slots = nullptr;
    stripe.capacity = 0;
    std::vector<Sample>().swap(stripe.slab);
  }
  g_session_open = false;
  return collapsed;
}

StatusOr<std::string> Profiler::Collect(double seconds,
                                        const ProfilerOptions& options) {
  seconds = std::clamp(seconds, 0.05, 30.0);
  Status started = Start(options);
  if (!started.ok()) return started;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  return Stop();
}

bool Profiler::armed() const {
  std::lock_guard<std::mutex> lock(ControlMutex());
  return g_session_open;
}

uint64_t Profiler::SamplesTaken() const {
  std::lock_guard<std::mutex> lock(ControlMutex());
  return g_session_open ? TakenLocked() : g_last_taken;
}

uint64_t Profiler::SamplesDropped() const {
  std::lock_guard<std::mutex> lock(ControlMutex());
  return g_session_open ? g_dropped.load(std::memory_order_seq_cst)
                        : g_last_dropped;
}

}  // namespace topkdup::obs
