#pragma once
// Two-tier SP-order: the parallel engine's one per-node SP-order
// (Sections 3-6). It keeps the exact English and Hebrew total orders of
// serial SP-order (sporder/sp_order.hpp, whose split rule it calls), each
// represented as a two-tier SegmentList so that:
//  - every enter_internal performs two LOCAL (segment-internal) inserts
//    per list, lock-free against queries, no global-tier traffic;
//  - only a steal cuts segments and inserts into the global tier (the
//    order over segments): one English cut and two Hebrew cuts, i.e.
//    exactly 3 global OM insertions per steal.
// Queries answer with Theorem 4's characterization
//   u < v  iff  Eng(u) < Eng(v) and Heb(u) < Heb(v),
// which is schedule-independent, so parallel runs agree with the serial
// oracle bit-for-bit. SP-hybrid (Mode::kHybrid) asks the engine's
// TraceBags fast tier first and this order only on a miss; the naive
// parallel SP-order (Mode::kNaive) calls enter_internal and precedes
// under one global mutex and never steal_split, so its orders stay one
// segment each.
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
#include "sporder/sp_order.hpp"
#include "sptree/sp_maintenance.hpp"

namespace spr::hybrid {

class TwoTierSp {
 public:
  using SegItem = SegmentList::Item;

  explicit TwoTierSp(const tree::ParseTree& t)
      : tree_(t), slots_(t.node_count()) {
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
    const order::BasicSlot<SegItem> base{
        slots_[id].eng.load(std::memory_order_acquire),
        slots_[id].heb.load(std::memory_order_relaxed)};
    const auto b = order::split(eng_, heb_, base,
                                n.kind == tree::NodeKind::kSeries);
    Slot& left = slots_[static_cast<std::size_t>(n.left)];
    Slot& right = slots_[static_cast<std::size_t>(n.right)];
    left.heb.store(b.left.heb, std::memory_order_relaxed);
    right.heb.store(b.right.heb, std::memory_order_relaxed);
    // Publishing the English item last (release) makes a slot "visible"
    // atomically: a resolver that acquires .eng also sees .heb.
    left.eng.store(b.left.eng, std::memory_order_release);
    right.eng.store(b.right.eng, std::memory_order_release);
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

  /// Global-tier insertions: every segment but the two roots' is a cut.
  std::uint64_t global_inserts() const {
    return eng_.segment_count() + heb_.segment_count() - 2;
  }
  std::uint64_t query_retries() const {
    return eng_.query_retries() + heb_.query_retries();
  }
  /// Items in both orders. Quiescent only.
  std::uint64_t items() const { return eng_.size() + heb_.size(); }

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
};

}  // namespace spr::hybrid
