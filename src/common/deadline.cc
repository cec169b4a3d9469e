#include "common/deadline.h"

#include <mutex>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"

namespace topkdup {

const char* DeadlineReasonName(DeadlineReason reason) {
  switch (reason) {
    case DeadlineReason::kNone:
      return "none";
    case DeadlineReason::kWallClock:
      return "wall_clock";
    case DeadlineReason::kWorkBudget:
      return "work_budget";
    case DeadlineReason::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

void MarkDegraded(const Deadline& deadline, const char* stage, int level,
                  bool partial_stage, DegradationInfo* info) {
  if (info->degraded) return;
  info->degraded = true;
  info->stage = stage;
  info->level = level;
  info->reason = deadline.reason();
  info->work_done = deadline.work_charged();
  info->work_budget = deadline.work_budget();
  info->partial_stage = partial_stage;
  auto& registry = metrics::Registry::Global();
  registry.GetCounter("deadline.degraded_queries")->Increment();
  registry.GetCounter(std::string("deadline.stage_stopped.") + stage)
      ->Increment();
  TOPKDUP_LOG(Info) << "deadline expired (" << DeadlineReasonName(info->reason)
                    << ") in stage " << stage
                    << (level > 0 ? " at level " + std::to_string(level) : "")
                    << (partial_stage ? " (mid-stage)" : " (stage boundary)");
}

Deadline Deadline::AfterMillis(int64_t millis) {
  Deadline d;
  d.has_wall_ = true;
  d.wall_deadline_ = Clock::now() + std::chrono::milliseconds(millis);
  return d;
}

Deadline Deadline::WithWorkBudget(uint64_t units) {
  Deadline d;
  d.has_budget_ = true;
  d.work_budget_ = units;
  return d;
}

bool Deadline::CheckSlow(bool include_work_budget) const {
  // Cancellation outranks the budgets: it is an explicit caller decision.
  if (cancel_ != nullptr && cancel_->cancelled()) {
    Latch(DeadlineReason::kCancelled);
    return true;
  }
  if (include_work_budget && has_budget_ &&
      work_charged_.load(std::memory_order_relaxed) >= work_budget_) {
    Latch(DeadlineReason::kWorkBudget);
    return true;
  }
  if (has_wall_ && Clock::now() >= wall_deadline_) {
    Latch(DeadlineReason::kWallClock);
    return true;
  }
  return false;
}

void Deadline::Latch(DeadlineReason reason) const {
  int expected = static_cast<int>(DeadlineReason::kNone);
  latched_.compare_exchange_strong(expected, static_cast<int>(reason),
                                   std::memory_order_relaxed,
                                   std::memory_order_relaxed);
}

namespace {

// Delivery can cross threads (a pool worker reporting into a handler
// delegated from the region-launching thread), so status_ writes are
// serialized by one global mutex; delivery is rare (per-fault), while
// registration stays lock-free on the thread-local stack below.
std::mutex& DeliveryMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

// Innermost-last stack of handlers visible to *this thread*: the ones it
// registered itself plus any delegated to it for the duration of a
// parallel-region shard. Thread-local so a fault fired under query A can
// never land in concurrently running query B's handler.
std::vector<ScopedSoftFailHandler*>& HandlerStack() {
  thread_local std::vector<ScopedSoftFailHandler*> stack;
  return stack;
}

}  // namespace

ScopedSoftFailHandler::ScopedSoftFailHandler() {
  HandlerStack().push_back(this);
}

ScopedSoftFailHandler::~ScopedSoftFailHandler() {
  auto& stack = HandlerStack();
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (*it == this) {
      stack.erase(std::next(it).base());
      break;
    }
  }
}

void ScopedSoftFailHandler::Deliver(Status status) {
  std::lock_guard<std::mutex> lock(DeliveryMutex());
  if (!triggered_.load(std::memory_order_relaxed)) {
    status_ = std::move(status);
    triggered_.store(true, std::memory_order_release);
  }
}

bool ScopedSoftFailHandler::Report(Status status) {
  ScopedSoftFailHandler* handler = internal::CurrentSoftFailHandler();
  if (handler == nullptr) {
    TOPKDUP_LOG(Warning)
        << "soft failure with no handler registered on this thread: "
        << status.ToString();
    return false;
  }
  handler->Deliver(std::move(status));
  return true;
}

bool ScopedSoftFailHandler::triggered() const {
  return triggered_.load(std::memory_order_acquire);
}

Status ScopedSoftFailHandler::status() const {
  std::lock_guard<std::mutex> lock(DeliveryMutex());
  return triggered_.load(std::memory_order_relaxed) ? status_ : Status::OK();
}

namespace internal {

ScopedSoftFailHandler* CurrentSoftFailHandler() {
  auto& stack = HandlerStack();
  return stack.empty() ? nullptr : stack.back();
}

ScopedSoftFailDelegate::ScopedSoftFailDelegate(ScopedSoftFailHandler* handler)
    : installed_(handler != nullptr) {
  if (installed_) HandlerStack().push_back(handler);
}

ScopedSoftFailDelegate::~ScopedSoftFailDelegate() {
  if (installed_) HandlerStack().pop_back();
}

}  // namespace internal

}  // namespace topkdup
