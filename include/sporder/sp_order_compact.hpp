#pragma once
// SP-order, compact variant (footnote 2 of the paper): the OM items of a
// fully executed subtree can be RECLAIMED, because on-the-fly queries
// only ever compare a finished thread u against the currently executing
// thread v, and every thread inside a completed subtree relates to any
// thread outside it the same way (their LCA, and hence the P/S verdict,
// is the same for the whole subtree). So once a subtree completes, its
// whole region in both OM lists collapses to the subtree's base items.
//
// Implementation: the same split rule and fork stack as SP-order
// (sporder/sp_order.hpp), where each stack entry also remembers the
// fork's base slot and the two items the fork minted. A completed subtree
// is a contiguous range of thread ids, so a union-find over threads
// collapses it: on_join unites the two branches' sets, points the union
// at the fork's base slot, and erases the two minted items from the
// OrderLists — real deletion, via OrderList::erase. A query resolves a
// thread through find(), landing on its outermost completed subtree.
// Live items are therefore O(spine + executing leaves) instead of O(n).
//
// The trade-off: queries are only valid ON-THE-FLY (v currently
// executing). Post-run all-pairs queries would compare two collapsed
// subtrees against each other, which footnote 2 explicitly gives up; the
// plain SpOrder keeps that ability.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "om/order_list.hpp"
#include "spbags/dsu.hpp"
#include "sporder/sp_order.hpp"

namespace spr::order {

class SpOrderCompact final : public tree::SpMaintenance {
 public:
  explicit SpOrderCompact(const tree::ParseTree& t)
      : sets_(t.leaf_count()), slots_(t.leaf_count()) {
    cur_.eng = english_.root();
    cur_.heb = hebrew_.root();
  }

  void on_fork(bool series) override {
    const Branches b = split(english_, hebrew_, cur_, series);
    // The minted Hebrew item is whichever branch did not keep the base's.
    forks_.push_back({cur_, b.right, series ? b.right.heb : b.left.heb,
                      tree::kNoThread});
    cur_ = b.left;
  }

  void on_switch() override {
    Fork& f = forks_.back();
    f.left_last = last_;
    cur_ = f.right;
  }

  void on_join() override {
    // Collapse the completed subtree: both branches' threads resolve to
    // the fork's base slot, and the items the fork minted die.
    const Fork f = forks_.back();
    forks_.pop_back();
    slots_[sets_.unite(f.left_last, last_)] = f.base;
    english_.erase(f.right.eng);
    hebrew_.erase(f.fresh_heb);
  }

  void on_thread_begin(tree::ThreadId t) override {
    slots_[t] = cur_;
    last_ = t;
  }

  /// On-the-fly only: v must be executing (not yet inside any completed
  /// subtree). u may be finished; it resolves to its completed root.
  bool precedes(tree::ThreadId u, tree::ThreadId v) override {
    if (u == v) return false;
    const Slot& a = slots_[sets_.find(u)];
    const Slot& b = slots_[sets_.find(v)];
    if (a.eng == b.eng) return false;  // collapsed into one subtree
    return english_.precedes(a.eng, b.eng) && hebrew_.precedes(a.heb, b.heb);
  }

  std::size_t memory_bytes() const override {
    // Genuinely live footprint: the OrderLists shrink as subtrees
    // complete (erase() frees nodes and emptied buckets).
    return sizeof(*this) + english_.memory_bytes() + hebrew_.memory_bytes() +
           sets_.memory_bytes() + slots_.capacity() * sizeof(Slot) +
           forks_.capacity() * sizeof(Fork);
  }

  /// Peak live OM items across both lists (for the reclamation tests).
  std::size_t live_om_items() const {
    return english_.size() + hebrew_.size();
  }

  const om::OrderList::Stats& english_stats() const {
    return english_.stats();
  }
  const om::OrderList::Stats& hebrew_stats() const { return hebrew_.stats(); }

 private:
  struct Fork {
    Slot base;                       ///< the subtree's own items
    Slot right;                      ///< the right branch's slot
    om::OrderList::Item* fresh_heb;  ///< minted here (with right.eng)
    tree::ThreadId left_last;        ///< a thread of the left branch
  };

  om::OrderList english_;
  om::OrderList hebrew_;
  bags::DisjointSets sets_;  ///< completed subtrees, over thread ids
  std::vector<Slot> slots_;  ///< per set root: the slot it resolves to
  std::vector<Fork> forks_;  ///< open forks, innermost last
  Slot cur_;                 ///< slot of the subtree being entered
  tree::ThreadId last_ = tree::kNoThread;  ///< most recently begun thread
};

}  // namespace spr::order
