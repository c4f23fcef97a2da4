#pragma once
// Disjoint-set structures for SP-bags and the SP-hybrid local tier.
//
// DisjointSets: serial union-find with union by rank and path
// compression, the Theta(alpha) structure of Figure 3's SP-bags row,
// used by serial SP-bags. Instrumented with find/step counters.
//
// AtomicDisjointSets: the SP-hybrid local tier's union-find, union by
// rank only (Theorem 10's analysis). Unions are serialized by the owning
// worker and publish parent links with release stores; finds are
// read-only acquire walks, so they are safe against a concurrent unite:
// a find that reads a stale link still climbs through ancestors of its
// start and ends at a root the union later hangs below the merged root.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/atomics.hpp"

namespace spr::bags {

class DisjointSets {
 public:
  explicit DisjointSets(std::uint32_t n) : parent_(n), rank_(n, 0) {
    for (std::uint32_t i = 0; i < n; ++i) parent_[i] = i;
  }

  std::uint32_t find(std::uint32_t x) {
    ++finds_;
    std::uint32_t root = x;
    while (parent_[root] != root) {
      root = parent_[root];
      ++find_steps_;
    }
    while (parent_[x] != root) {
      const std::uint32_t next = parent_[x];
      parent_[x] = root;
      x = next;
    }
    return root;
  }

  /// Unites the sets of a and b; returns the new root.
  std::uint32_t unite(std::uint32_t a, std::uint32_t b) {
    std::uint32_t ra = find(a);
    std::uint32_t rb = find(b);
    if (ra == rb) return ra;
    if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    if (rank_[ra] == rank_[rb]) ++rank_[ra];
    return ra;
  }

  std::uint64_t finds() const { return finds_; }
  std::uint64_t find_steps() const { return find_steps_; }

  std::size_t memory_bytes() const {
    return sizeof(*this) + parent_.capacity() * sizeof(std::uint32_t) +
           rank_.capacity() * sizeof(std::uint8_t);
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> rank_;
  std::uint64_t finds_ = 0;
  std::uint64_t find_steps_ = 0;
};

class AtomicDisjointSets {
 public:
  explicit AtomicDisjointSets(std::uint32_t n) : parent_(n), rank_(n, 0) {
    for (std::uint32_t i = 0; i < n; ++i)
      parent_[i].store(i, std::memory_order_relaxed);
  }

  std::uint32_t find(std::uint32_t x) const {
    for (;;) {
      const std::uint32_t p = parent_[x].load(std::memory_order_acquire);
      if (p == x) return x;
      x = p;
    }
  }

  /// Union by rank. Caller must serialize unions (in SP-hybrid, unions of
  /// a trace's sets are performed only by the worker owning the trace).
  std::uint32_t unite(std::uint32_t a, std::uint32_t b) {
    std::uint32_t ra = find(a);
    std::uint32_t rb = find(b);
    if (ra == rb) return ra;
    if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
    parent_[rb].store(ra, std::memory_order_release);
    if (rank_[ra] == rank_[rb]) ++rank_[ra];
    return ra;
  }

 private:
  std::vector<spr::atomic<std::uint32_t>> parent_;
  std::vector<std::uint8_t> rank_;  ///< rank_[r] touched only while r is a
                                    ///< root owned by one completion chain
};

}  // namespace spr::bags
