#pragma once
// Two-tier SP maintenance for the parallel SP-hybrid executor
// (Sections 4-6). The structural tier keeps the exact English and Hebrew
// total orders of serial SP-order (sporder/sp_order.hpp), each represented
// as a two-tier SegmentList so that:
//  - every enter_internal performs two LOCAL (segment-internal) inserts
//    per list, lock-free against queries, no global-tier traffic;
//  - only a steal cuts segments and inserts into the global tier (an
//    om::ConcurrentOrderList): one English cut and two Hebrew cuts, i.e.
//    exactly 3 global OM insertions per steal.
// Queries answer with Theorem 4's characterization
//   u < v  iff  Eng(u) < Eng(v) and Heb(u) < Heb(v),
// which is schedule-independent, so parallel runs agree with the serial
// oracle bit-for-bit. The TraceBags fast tier answers same-trace
// on-the-fly queries with one union-find find and no shared-order reads.
//
// Slot materialization: a node's (eng, heb) items are created when its
// parent is entered. precedes() resolves a thread that has not yet
// executed via its deepest slotted ancestor A; that is correct because
// the whole subtree of A relates uniformly to any thread outside it, and
// the happens-before edges of the scheduler guarantee the querying
// worker can never climb past LCA(u, v)'s child (see sphybrid/README.md).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/atomics.hpp"

#include "sphybrid/segment_list.hpp"
#include "spbags/trace_bags.hpp"
#include "sptree/sp_maintenance.hpp"

namespace spr::hybrid {

class TwoTierSp {
 public:
  using SegItem = SegmentList::Item;

  explicit TwoTierSp(const tree::ParseTree& t)
      : tree_(t), slots_(t.node_count()), bags_(t.leaf_count()) {
    if (t.root() != tree::kNoNode) {
      Slot& root = slots_[static_cast<std::size_t>(t.root())];
      root.heb.store(heb_.root(), std::memory_order_relaxed);
      root.eng.store(eng_.root(), std::memory_order_relaxed);
    }
  }

  /// Serial SP-order's split rule, executed once by the worker entering
  /// `n`: left child keeps the base items; the right child's English item
  /// goes after the base, and the Hebrew item swaps sides at P-nodes.
  void enter_internal(const tree::Node& n) {
    const std::size_t id = static_cast<std::size_t>(n.id);
    SegItem* e = slots_[id].eng.load(std::memory_order_acquire);
    SegItem* h = slots_[id].heb.load(std::memory_order_relaxed);
    SegItem* e_right = eng_.insert_after(e);
    SegItem* h_new = heb_.insert_after(h);
    Slot& left = slots_[static_cast<std::size_t>(n.left)];
    Slot& right = slots_[static_cast<std::size_t>(n.right)];
    if (n.kind == tree::NodeKind::kSeries) {
      left.heb.store(h, std::memory_order_relaxed);
      right.heb.store(h_new, std::memory_order_relaxed);
    } else {
      right.heb.store(h, std::memory_order_relaxed);
      left.heb.store(h_new, std::memory_order_relaxed);
    }
    // Publishing the English item last (release) makes a slot "visible"
    // atomically: a resolver that acquires .eng also sees .heb.
    left.eng.store(e, std::memory_order_release);
    right.eng.store(e_right, std::memory_order_release);
  }

  /// Steal path: thread `stolen` is the right child of P-node X whose
  /// continuation was just stolen. Cuts the English order once (at R's
  /// base) and the Hebrew order twice (R's region sits between the
  /// pre-X region and L's region there): 3 global-tier insertions.
  void steal_split(tree::NodeId stolen) {
    const tree::Node& r = tree_.node(stolen);
    const tree::Node& x = tree_.node(r.parent);
    const std::size_t lid = static_cast<std::size_t>(x.left);
    const std::size_t rid = static_cast<std::size_t>(stolen);
    // Hebrew: [pre | h_X(=R base) | h_L | ...] -> cut the L-suffix first,
    // then R's singleton region, yielding global order pre < R < L.
    heb_.split_tail(slots_[lid].heb.load(std::memory_order_acquire));
    heb_.split_tail(slots_[rid].heb.load(std::memory_order_acquire));
    // English: [pre + L | e_R ...] -> one cut at R's base.
    eng_.split_tail(slots_[rid].eng.load(std::memory_order_acquire));
  }

  // ---- TraceBags hooks (forwarded so the executor has one facade) ----
  void on_leaf(tree::ThreadId t, std::uint32_t trace_id) {
    bags_.on_leaf(t, trace_id);
  }
  void classify(std::uint32_t set_member, bool serial) {
    bags_.classify(set_member, serial);
  }
  std::uint32_t unite(std::uint32_t a, std::uint32_t b) {
    return bags_.unite(a, b);
  }

  /// Structural query, valid for any pair (including after the run).
  bool precedes(tree::ThreadId u, tree::ThreadId v) const {
    if (u == v) return false;
    const Slot* su = resolve(u);
    const Slot* sv = resolve(v);
    if (su == sv) return false;  // both unresolved below one ancestor
    const SegItem* eu = su->eng.load(std::memory_order_acquire);
    const SegItem* ev = sv->eng.load(std::memory_order_acquire);
    if (!eng_.less(eu, ev)) return false;
    return heb_.less(su->heb.load(std::memory_order_relaxed),
                     sv->heb.load(std::memory_order_relaxed));
  }

  /// On-the-fly query: u completed (or a recorded accessor), v currently
  /// executing on the calling worker. Tries the same-trace SP-bags tier
  /// first; falls back to the structural tier.
  bool precedes_onthefly(tree::ThreadId u, tree::ThreadId v) {
    if (u == v) return false;
    switch (bags_.precedes_fast(u, v)) {
      case bags::TraceBags::Answer::kSerial:
        fast_hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      case bags::TraceBags::Answer::kParallel:
        fast_hits_.fetch_add(1, std::memory_order_relaxed);
        return false;
      case bags::TraceBags::Answer::kMiss:
        break;
    }
    return precedes(u, v);
  }

  std::uint64_t global_inserts() const {
    return eng_.global_inserts() + heb_.global_inserts();
  }
  std::uint64_t query_retries() const {
    return eng_.query_retries() + heb_.query_retries();
  }
  std::uint64_t fast_hits() const {
    return fast_hits_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    spr::atomic<SegItem*> eng{nullptr};
    spr::atomic<SegItem*> heb{nullptr};
  };

  /// Deepest slotted self-or-ancestor of thread u's leaf. Terminates at
  /// the root, whose slot is set at construction.
  const Slot* resolve(tree::ThreadId u) const {
    tree::NodeId id = tree_.leaf(u).id;
    for (;;) {
      const Slot& s = slots_[static_cast<std::size_t>(id)];
      if (s.eng.load(std::memory_order_acquire) != nullptr) return &s;
      id = tree_.node(id).parent;
    }
  }

  const tree::ParseTree& tree_;
  SegmentList eng_;
  SegmentList heb_;
  std::vector<Slot> slots_;
  bags::TraceBags bags_;
  spr::atomic<std::uint64_t> fast_hits_{0};
};

}  // namespace spr::hybrid
