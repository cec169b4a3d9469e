#ifndef TOPKDUP_COMMON_QUERY_CONTEXT_H_
#define TOPKDUP_COMMON_QUERY_CONTEXT_H_

#include <cstdint>

namespace topkdup {

class Deadline;
namespace obs {
class ExplainRecorder;
}  // namespace obs

/// The per-query state that cuts across every pipeline stage, passed as a
/// trailing `const QueryContext&` (default: empty). It owns nothing and
/// carries no algorithm knobs; those stay on each stage's options struct.
struct QueryContext {
  /// Query budget (null = unlimited; common/deadline.h). Stages copy it
  /// into a local at entry, so the absent-deadline path is one pointer
  /// test.
  const Deadline* deadline = nullptr;
  /// Explain recorder (null = off; obs/explain.h). The caller creates it
  /// with its sample rate, stamps set_query_id, and calls Finish() after
  /// the query; stages only record into it.
  obs::ExplainRecorder* explain = nullptr;
  /// Owning service query id (serve::QueryResponse::query_id), stamped on
  /// the query's trace spans so live introspection joins them to the
  /// request-log line. 0 adds nothing.
  uint64_t query_id = 0;
};

}  // namespace topkdup

#endif  // TOPKDUP_COMMON_QUERY_CONTEXT_H_
