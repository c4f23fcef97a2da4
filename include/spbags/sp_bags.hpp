#pragma once
// SP-bags (Feng-Leiserson style; Figure 3 row 3): Theta(1) space per
// thread, Theta(alpha) per thread creation and query, via union-find.
//
// Invariant maintained by the English-order events: at the moment thread
// v executes, the completed threads partition into one disjoint set per
// completed subtree hanging off the root-to-v path. Such a subtree is the
// left branch of some open fork A of v, and its set was classified at
// A's on_switch: S if A is a series fork (everything in it precedes v),
// P if A is a parallel fork (everything in it is parallel to v). A query
// for a completed thread u is therefore one find() plus a flag read — and
// the flag at find(u)'s root was written exactly when the execution
// crossed LCA(u, v).
//
// The only per-fork state is a stack entry (the fork's kind and a thread
// of its left branch), so any English-order event source drives it.
// Queries are only meaningful for completed u against the currently
// executing v — the on-the-fly discipline race detectors follow.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "spbags/dsu.hpp"
#include "sptree/sp_maintenance.hpp"

namespace spr::bags {

class SpBags : public tree::SpMaintenance {
 public:
  explicit SpBags(const tree::ParseTree& t)
      : dsu_(t.leaf_count()), serial_flag_(t.leaf_count(), 0) {}

  void on_fork(bool series) override { forks_.push_back({series, 0}); }

  void on_switch() override {
    // last_ lies in the fork's just-completed left branch, whose threads
    // already form one set.
    Fork& f = forks_.back();
    serial_flag_[dsu_.find(last_)] = f.series ? 1 : 0;
    f.left_last = last_;
  }

  void on_join() override {
    // Merge the left and right branch sets; the union's classification
    // is assigned later by the fork whose switch crosses it.
    dsu_.unite(forks_.back().left_last, last_);
    forks_.pop_back();
  }

  void on_thread_begin(tree::ThreadId t) override { last_ = t; }

  bool precedes(tree::ThreadId u, tree::ThreadId v) override {
    if (u == v) return false;
    (void)v;  // valid only for completed u vs the current thread
    return serial_flag_[dsu_.find(u)] != 0;
  }

  std::size_t memory_bytes() const override {
    return sizeof(*this) + dsu_.memory_bytes() +
           serial_flag_.capacity() * sizeof(std::uint8_t) +
           forks_.capacity() * sizeof(Fork);
  }

  const DisjointSets& dsu() const { return dsu_; }

 private:
  struct Fork {
    bool series;
    tree::ThreadId left_last;  ///< a thread of the completed left branch
  };

  DisjointSets dsu_;
  std::vector<std::uint8_t> serial_flag_;  ///< per DSU root: 1 = S-bag
  std::vector<Fork> forks_;                ///< open forks, innermost last
  tree::ThreadId last_ = 0;                ///< most recently begun thread
};

}  // namespace spr::bags
