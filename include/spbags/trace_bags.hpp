#pragma once
// SP-bags over traces: SP-hybrid's local tier (Sections 5-6). One shared
// union-find instance (AtomicDisjointSets: union by rank, read-only
// acquire finds) spans all workers; every walk event is executed by
// exactly one worker, and the scheduler's join protocol (acq_rel on the
// join counter) orders the cross-worker hand-off of subtree set roots.
//
// Each set root carries one atomic word: the S/P flag, the trace that
// classified the set, and the index of a global-tier item pair (that
// trace's pair at classify time, or the pair a later steal re-pointed the
// set to). For u != v, v running in trace t:
//  - P, or never classified: u || v (this covers an unexecuted u);
//  - S, classified by t itself: u precedes v;
//  - S from another trace: the caller compares the word's item pair
//    with t's (Theorem 4 over trace pairs; sphybrid/README.md proves
//    that find(u)'s word is the one this rule needs).

#include <atomic>
#include <cstdint>
#include <vector>

#include "spbags/dsu.hpp"
#include "sptree/sp_maintenance.hpp"

namespace spr::bags {

class TraceBags {
 public:
  explicit TraceBags(std::uint32_t leaf_count)
      : dsu_(leaf_count), word_(leaf_count) {
    for (auto& w : word_) w.store(0, std::memory_order_relaxed);
  }

  /// Classifies a completed subtree's set (between_children of the
  /// enclosing node), written by the trace `trace` whose own item pair
  /// is `pair`. A parallel set needs neither.
  void classify(std::uint32_t set_member, bool serial, std::uint32_t trace,
                std::uint32_t pair) {
    word_[dsu_.find(set_member)].store(serial ? pack(trace, pair) : 0,
                                       std::memory_order_release);
  }

  /// Merges two completed sibling subtrees (leave_internal); returns the
  /// merged root. Caller serializes via the join protocol.
  std::uint32_t unite(std::uint32_t a, std::uint32_t b) {
    return dsu_.unite(a, b);
  }

  /// Steal path: if the S-set of `set_member` still carries pair `from`,
  /// it now carries `to`. Returns whether it did.
  bool repoint(std::uint32_t set_member, std::uint32_t from,
               std::uint32_t to) {
    auto& w = word_[dsu_.find(set_member)];
    const std::uint64_t old = w.load(std::memory_order_relaxed);
    if ((old & kSerialBit) == 0 || pair_of(old) != from) return false;
    w.store((old & ~kPairMask) | to, std::memory_order_release);
    return true;
  }

  /// Query for any u != v, v running in trace `trace`. kMiss leaves the
  /// word's pair index in `pair` for the caller's pair comparison.
  enum class Answer : std::uint8_t { kSerial, kParallel, kMiss };
  Answer precedes_fast(tree::ThreadId u, std::uint32_t trace,
                       std::uint32_t& pair) const {
    const std::uint64_t w = word_[dsu_.find(u)].load(std::memory_order_acquire);
    if ((w & kSerialBit) == 0) return Answer::kParallel;
    if (trace_of(w) == trace) return Answer::kSerial;
    pair = pair_of(w);
    return Answer::kMiss;
  }

 private:
  static constexpr std::uint64_t kSerialBit = 1ULL << 63;
  static constexpr std::uint64_t kPairMask = 0xffffffffULL;

  static std::uint64_t pack(std::uint32_t trace, std::uint32_t pair) {
    return kSerialBit | (std::uint64_t{trace} << 32) | pair;
  }
  static std::uint32_t trace_of(std::uint64_t w) {
    return static_cast<std::uint32_t>((w & ~kSerialBit) >> 32);
  }
  static std::uint32_t pair_of(std::uint64_t w) {
    return static_cast<std::uint32_t>(w & kPairMask);
  }

  AtomicDisjointSets dsu_;
  std::vector<std::atomic<std::uint64_t>> word_;  ///< per root
};

}  // namespace spr::bags
