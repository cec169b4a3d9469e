#include "dedup/streaming_collapse.h"

#include <algorithm>
#include <utility>

namespace topkdup::dedup {

StreamingCollapse::StreamingCollapse(SufficientFn sufficient)
    : sufficient_(std::move(sufficient)) {}

size_t StreamingCollapse::Insert(const std::vector<std::string>& signature,
                                 double weight) {
  const size_t id = uf_.Add();
  weights_.push_back(weight);

  // Earlier records sharing at least one token, each evaluated once.
  std::vector<size_t> candidates;
  for (const std::string& token : signature) {
    const auto it = postings_.find(token);
    if (it == postings_.end()) continue;
    candidates.insert(candidates.end(), it->second.begin(), it->second.end());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (size_t other : candidates) {
    if (uf_.Find(id) == uf_.Find(other)) continue;  // Merged transitively.
    if (sufficient_(id, other)) uf_.Union(id, other);
  }

  for (const std::string& token : signature) {
    std::vector<size_t>& ids = postings_[token];
    // A token repeated within one signature is posted once.
    if (ids.empty() || ids.back() != id) ids.push_back(id);
  }
  return uf_.Find(id);
}

std::vector<StreamingCollapse::GroupView> StreamingCollapse::Groups() {
  std::vector<GroupView> out;
  out.reserve(uf_.set_count());
  for (std::vector<size_t>& members : uf_.Groups()) {
    GroupView view;
    for (size_t m : members) view.weight += weights_[m];
    view.members = std::move(members);
    out.push_back(std::move(view));
  }
  std::sort(out.begin(), out.end(),
            [](const GroupView& a, const GroupView& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.members.front() < b.members.front();
            });
  return out;
}

}  // namespace topkdup::dedup
