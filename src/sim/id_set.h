// IdSet: a set of 64-bit ids held as one sorted vector.
//
// The dispatch queues keep their lazy-cancel marks (DESIGN §16) in one: a
// mark is looked up on every pop but added only once per hedge cancel. A
// binary search answers the lookup, and the vector grows by doubling, so
// the set reaches the global allocator O(log n) times over a run and holds
// an id in 8 B, where a hash set allocates a ~40 B node per id.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace nicsched::sim {

class IdSet {
 public:
  bool empty() const { return ids_.empty(); }
  std::size_t size() const { return ids_.size(); }

  /// Adds `id`; returns true if it was not already present.
  bool insert(std::uint64_t id) {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it != ids_.end() && *it == id) return false;
    ids_.insert(it, id);
    return true;
  }

  /// Removes `id`; returns true if it was present.
  bool erase(std::uint64_t id) {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it == ids_.end() || *it != id) return false;
    ids_.erase(it);
    return true;
  }

 private:
  std::vector<std::uint64_t> ids_;
};

}  // namespace nicsched::sim
