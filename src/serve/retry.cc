#include "serve/retry.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"

namespace topkdup::serve {

int64_t RetryPolicy::BackoffMillis(uint64_t request_id, int attempt) const {
  if (attempt < 1) return 0;
  double delay = static_cast<double>(base_backoff_ms) *
                 std::pow(multiplier, attempt - 1);
  delay = std::min(delay, static_cast<double>(max_backoff_ms));
  const double j = std::clamp(jitter, 0.0, 1.0);
  if (j > 0.0) {
    const uint64_t draw =
        SplitMix64(seed ^ SplitMix64(request_id * 0x9e3779b97f4a7c15ULL +
                                     static_cast<uint64_t>(attempt)));
    const double unit = static_cast<double>(draw >> 11) * 0x1.0p-53;
    delay *= (1.0 - j) + j * unit;
  }
  return std::max<int64_t>(0, static_cast<int64_t>(delay));
}

}  // namespace topkdup::serve
