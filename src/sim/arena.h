// ArenaResource: a pooled std::pmr memory resource for per-request
// bookkeeping that churns at steady state.
//
// The reliable-dispatch maps (inflight table, seq→request index, per-worker
// dedupe sets) allocate a node per tracked request and free it a few
// microseconds later when the ack lands — a perfectly recyclable population
// that nevertheless hit the global allocator once per request. ArenaResource
// interposes exact-size freelists: the first wave of requests warms the
// pools, and every allocation after that is a pop from a vector. Containers
// keep their exact semantics (same nodes, same hashing, same iteration),
// which is what lets the reliable-mode goldens stay bit-identical while the
// sim_alloc_test new/delete shims prove the steady state allocates nothing.
//
// Distinct (size, alignment) classes are expected to be few (the node and
// bucket-array types of a handful of containers), so the class lookup is a
// linear scan over a short vector. Blocks are returned to the pool on
// deallocate and only released to the upstream allocator when the arena is
// destroyed; containers built on an arena must therefore be destroyed before
// it (declare the arena first).
//
// Not thread-safe; an arena belongs to one component on one shard, exactly
// like the containers it feeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <vector>

namespace nicsched::sim {

class ArenaResource : public std::pmr::memory_resource {
 public:
  ArenaResource() = default;
  ~ArenaResource() override;

  ArenaResource(const ArenaResource&) = delete;
  ArenaResource& operator=(const ArenaResource&) = delete;

 private:
  void* do_allocate(std::size_t bytes, std::size_t alignment) override;
  void do_deallocate(void* p, std::size_t bytes, std::size_t alignment) override;
  bool do_is_equal(const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  struct SizeClass {
    std::size_t bytes = 0;
    std::size_t alignment = 0;
    std::vector<void*> free_blocks;
  };

  SizeClass& size_class(std::size_t bytes, std::size_t alignment);

  std::vector<SizeClass> classes_;
};

}  // namespace nicsched::sim
