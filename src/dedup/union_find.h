#ifndef TOPKDUP_DEDUP_UNION_FIND_H_
#define TOPKDUP_DEDUP_UNION_FIND_H_

#include <cstddef>
#include <vector>

namespace topkdup::dedup {

/// Disjoint-set forest with union by size and path compression.
/// Used to compute the transitive closure of sufficient-predicate matches
/// (paper §4.1).
class UnionFind {
 public:
  explicit UnionFind(size_t n);

  /// Appends a new singleton element and returns its id (the previous
  /// element_count()).
  size_t Add();

  /// Root of x's set (with path compression).
  size_t Find(size_t x);

  /// Merges the sets of a and b; returns true when they were distinct.
  bool Union(size_t a, size_t b);

  /// Number of elements in x's set.
  size_t SetSize(size_t x);

  /// Number of disjoint sets.
  size_t set_count() const { return set_count_; }

  size_t element_count() const { return parent_.size(); }

  /// Groups the elements by root: returns a list of member lists, one per
  /// set, members in increasing order, sets ordered by their smallest
  /// member.
  std::vector<std::vector<size_t>> Groups();

 private:
  std::vector<size_t> parent_;
  std::vector<size_t> size_;
  size_t set_count_;
};

}  // namespace topkdup::dedup

#endif  // TOPKDUP_DEDUP_UNION_FIND_H_
