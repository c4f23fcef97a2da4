#pragma once
// SP-order (Sections 2-3 of the paper): on-the-fly SP maintenance with
// Theta(1) time per thread creation and Theta(1) time per query, using two
// order-maintenance lists holding an English and a Hebrew ordering of the
// threads.
//
// Every subtree of the SP parse tree owns one item in each list. When a
// fork opens a subtree whose items are (e, h), its two branches split
// them (split() below):
//   English (serial order): left keeps e, right gets insert_after(e) —
//     for both S- and P-nodes, since English order is the serial order.
//   Hebrew: for an S-node, left keeps h and right gets insert_after(h);
//     for a P-node the children swap — right keeps h and left gets
//     insert_after(h) — so parallel siblings appear in the *opposite*
//     order in the Hebrew list.
// All descendants' items are inserted immediately after their subtree's
// base item, so the region between a subtree's item and its right
// neighbor stays contiguous; the split rule above is exactly Theta(1) OM
// inserts per fork (Theorem 5: O(n) total construction).
//
// Events arrive in English order, so the only per-fork state is a stack
// of pending right-branch slots: Theta(1) work per event, Theta(1) state
// per open fork, and no requirement that the program is ever materialized
// as a tree. The parallel engine's naive mode (sphybrid/worker.hpp)
// applies the same split() to nodes entered out of English order, so it
// keeps one slot per parse-tree node instead.
//
// Query (Theorem 4's characterization): for threads u != v,
//   u precedes v  iff  Eng(u) < Eng(v) and Heb(u) < Heb(v);
// if the two lists disagree, LCA(u, v) is a P-node and u || v.

#include <cstddef>
#include <vector>

#include "om/order_list.hpp"
#include "sptree/sp_maintenance.hpp"

namespace spr::order {

/// A subtree's pair of items: its place in the English and Hebrew lists.
struct Slot {
  om::OrderList::Item* eng = nullptr;
  om::OrderList::Item* heb = nullptr;
};

struct Branches {
  Slot left;
  Slot right;
};

/// The English/Hebrew split rule: mints one item after `base` in each
/// list and hands the fork's two branches their slots.
inline Branches split(om::OrderList& english, om::OrderList& hebrew,
                      Slot base, bool series) {
  om::OrderList::Item* e = english.insert_after(base.eng);
  om::OrderList::Item* h = hebrew.insert_after(base.heb);
  if (series) return {base, {e, h}};
  return {{base.eng, h}, {e, base.heb}};
}

/// SP-order driven by structural events, with statically bound calls:
/// the streaming service's per-stream engine and the serial detectors'
/// default backend.
class StreamingSpOrder {
 public:
  /// `threads` pre-sizes the per-thread table; it grows on demand.
  explicit StreamingSpOrder(std::size_t threads = 0) {
    cur_.eng = english_.root();
    cur_.heb = hebrew_.root();
    thread_slots_.reserve(threads);
  }

  void on_fork(bool series) {
    const Branches b = split(english_, hebrew_, cur_, series);
    cur_ = b.left;
    pending_.push_back(b.right);
  }
  void on_switch() { cur_ = pending_.back(); }
  void on_join() { pending_.pop_back(); }

  void on_thread_begin(tree::ThreadId t) {
    if (thread_slots_.size() <= t) thread_slots_.resize(t + 1);
    thread_slots_[t] = cur_;
  }

  bool precedes(tree::ThreadId u, tree::ThreadId v) const {
    if (u == v) return false;
    const Slot& a = thread_slots_[u];
    const Slot& b = thread_slots_[v];
    return english_.precedes(a.eng, b.eng) && hebrew_.precedes(a.heb, b.heb);
  }

  std::size_t memory_bytes() const {
    return sizeof(*this) + english_.memory_bytes() + hebrew_.memory_bytes() +
           pending_.capacity() * sizeof(Slot) +
           thread_slots_.capacity() * sizeof(Slot);
  }

  const om::OrderList::Stats& english_stats() const {
    return english_.stats();
  }
  const om::OrderList::Stats& hebrew_stats() const { return hebrew_.stats(); }

 private:
  om::OrderList english_;
  om::OrderList hebrew_;
  Slot cur_;                        ///< slot of the subtree being entered
  std::vector<Slot> pending_;       ///< right-branch slots of open forks
  std::vector<Slot> thread_slots_;  ///< per thread, set at thread begin
};

/// SP-order behind the virtual SpMaintenance interface, for callers that
/// pick a backend at run time or intercept precedes() in a subclass.
class SpOrder : public tree::SpMaintenance {
 public:
  explicit SpOrder(const tree::ParseTree& t) : sp_(t.leaf_count()) {}

  void on_fork(bool series) override { sp_.on_fork(series); }
  void on_switch() override { sp_.on_switch(); }
  void on_join() override { sp_.on_join(); }
  void on_thread_begin(tree::ThreadId t) override { sp_.on_thread_begin(t); }

  bool precedes(tree::ThreadId u, tree::ThreadId v) override {
    return sp_.precedes(u, v);
  }

  std::size_t memory_bytes() const override {
    return sizeof(tree::SpMaintenance) + sp_.memory_bytes();
  }

  const om::OrderList::Stats& english_stats() const {
    return sp_.english_stats();
  }
  const om::OrderList::Stats& hebrew_stats() const {
    return sp_.hebrew_stats();
  }

 private:
  StreamingSpOrder sp_;
};

}  // namespace spr::order
