#include "dedup/union_find.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace topkdup::dedup {

UnionFind::UnionFind(size_t n)
    : parent_(n), size_(n, 1), set_count_(n) {
  std::iota(parent_.begin(), parent_.end(), size_t{0});
}

size_t UnionFind::Add() {
  const size_t id = parent_.size();
  parent_.push_back(id);
  size_.push_back(1);
  ++set_count_;
  return id;
}

size_t UnionFind::Find(size_t x) {
  TOPKDUP_CHECK(x < parent_.size());
  size_t root = x;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[x] != root) {
    size_t next = parent_[x];
    parent_[x] = root;
    x = next;
  }
  return root;
}

bool UnionFind::Union(size_t a, size_t b) {
  size_t ra = Find(a);
  size_t rb = Find(b);
  if (ra == rb) return false;
  if (size_[ra] < size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  size_[ra] += size_[rb];
  --set_count_;
  return true;
}

size_t UnionFind::SetSize(size_t x) { return size_[Find(x)]; }

std::vector<std::vector<size_t>> UnionFind::Groups() {
  std::vector<std::vector<size_t>> by_root(parent_.size());
  for (size_t x = 0; x < parent_.size(); ++x) {
    by_root[Find(x)].push_back(x);
  }
  std::vector<std::vector<size_t>> out;
  out.reserve(set_count_);
  for (auto& members : by_root) {
    if (!members.empty()) out.push_back(std::move(members));
  }
  return out;
}

}  // namespace topkdup::dedup
