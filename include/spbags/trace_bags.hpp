#pragma once
// Trace-local SP-bags: the fast tier of SP-hybrid (Section 6). One shared
// union-find instance (AtomicDisjointSets: union by rank, read-only
// acquire finds) spans all workers; every walk event is executed by
// exactly one worker, and the scheduler's join protocol (acq_rel on the
// join counter) orders the cross-worker hand-off of subtree set roots.
//
// The S/P flag of a completed set's root means "relative to the walk
// position of the trace that wrote it". That makes the tier sound ONLY
// for same-trace queries with v currently executing:
//  - every walk event between two threads of one trace is executed by
//    that trace's worker, serially, so the flag at find(u)'s root was
//    written when the walk switched branches at LCA(u, v), exactly as in
//    serial SP-bags;
//  - an event owned by ANOTHER trace can only touch u's set once the
//    enclosing subtree (which contains v) has completed, i.e. after v
//    stopped being current — so it can never be observed by a valid query.
// Cross-trace queries fall through to the structural two-tier SP-order
// (sphybrid/two_tier_sp.hpp).

#include <atomic>
#include <cstdint>
#include <vector>

#include "spbags/dsu.hpp"
#include "sptree/sp_maintenance.hpp"

namespace spr::bags {

inline constexpr std::uint32_t kNoTrace = ~std::uint32_t{0};

class TraceBags {
 public:
  explicit TraceBags(std::uint32_t leaf_count)
      : dsu_(leaf_count), sflag_(leaf_count), trace_(leaf_count) {
    for (auto& f : sflag_) f.store(0, std::memory_order_relaxed);
    for (auto& t : trace_) t.store(kNoTrace, std::memory_order_relaxed);
  }

  /// Records that thread `t` executes inside trace `trace_id`. Called by
  /// the executing worker before the leaf's work runs.
  void on_leaf(tree::ThreadId t, std::uint32_t trace_id) {
    trace_[t].store(trace_id, std::memory_order_release);
  }

  /// Classifies a completed subtree's set (between_children of the
  /// enclosing node): serial (S-node) or parallel (P-node) relative to
  /// the writing trace's walk position.
  void classify(std::uint32_t set_member, bool serial) {
    sflag_[dsu_.find(set_member)].store(serial ? 1 : 0,
                                        std::memory_order_relaxed);
  }

  /// Merges two completed sibling subtrees (leave_internal); returns the
  /// merged root. Caller serializes via the join protocol.
  std::uint32_t unite(std::uint32_t a, std::uint32_t b) {
    return dsu_.unite(a, b);
  }

  /// Fast-path query: valid only when v is currently executing on the
  /// calling worker. Returns kMiss when u is not in v's trace (caller
  /// must fall back to the structural tier).
  enum class Answer : std::uint8_t { kSerial, kParallel, kMiss };
  Answer precedes_fast(tree::ThreadId u, tree::ThreadId v) {
    const std::uint32_t tu = trace_[u].load(std::memory_order_acquire);
    if (tu == kNoTrace) return Answer::kMiss;
    const std::uint32_t tv = trace_[v].load(std::memory_order_relaxed);
    if (tu != tv) return Answer::kMiss;
    return sflag_[dsu_.find(u)].load(std::memory_order_relaxed) != 0
               ? Answer::kSerial
               : Answer::kParallel;
  }

 private:
  AtomicDisjointSets dsu_;
  std::vector<std::atomic<std::uint8_t>> sflag_;  ///< per root: 1 = S-bag
  std::vector<std::atomic<std::uint32_t>> trace_;  ///< per thread
};

}  // namespace spr::bags
