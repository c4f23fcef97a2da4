#pragma once
// Shared test scaffolding: a brute-force LCA oracle for SP relationships,
// a corpus of small deterministic fork-join programs, and helpers that
// drive an SP-maintenance algorithm over a tree and check its answers
// against the oracle, on the fly and after the walk.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "sptree/sp_maintenance.hpp"
#include "sptree/walk.hpp"

namespace spr::testutil {

/// Ground truth by explicit LCA computation on the parse tree: for
/// threads u != v, u strictly precedes v iff u comes first in English
/// order (thread ids are assigned in English order) and LCA(u, v) is an
/// S-node.
class Oracle {
 public:
  explicit Oracle(const tree::ParseTree& t) : tree_(t) {
    depth_.assign(t.node_count(), 0);
    // Parents are created after their children, so ids descend along
    // root-to-leaf paths and one reverse sweep fixes all depths.
    for (std::uint32_t id = t.node_count(); id-- > 0;) {
      const tree::Node& n = t.node(static_cast<tree::NodeId>(id));
      if (n.kind == tree::NodeKind::kLeaf) continue;
      depth_[static_cast<std::size_t>(n.left)] = depth_[id] + 1;
      depth_[static_cast<std::size_t>(n.right)] = depth_[id] + 1;
    }
  }

  bool precedes(tree::ThreadId u, tree::ThreadId v) const {
    if (u == v) return false;
    return u < v && lca_kind(u, v) == tree::NodeKind::kSeries;
  }

  bool parallel(tree::ThreadId u, tree::ThreadId v) const {
    if (u == v) return false;
    return lca_kind(u, v) == tree::NodeKind::kParallel;
  }

 private:
  tree::NodeKind lca_kind(tree::ThreadId u, tree::ThreadId v) const {
    tree::NodeId a = tree_.leaf(u).id;
    tree::NodeId b = tree_.leaf(v).id;
    while (depth_[static_cast<std::size_t>(a)] >
           depth_[static_cast<std::size_t>(b)])
      a = tree_.node(a).parent;
    while (depth_[static_cast<std::size_t>(b)] >
           depth_[static_cast<std::size_t>(a)])
      b = tree_.node(b).parent;
    while (a != b) {
      a = tree_.node(a).parent;
      b = tree_.node(b).parent;
    }
    return tree_.node(a).kind;
  }

  const tree::ParseTree& tree_;
  std::vector<std::uint32_t> depth_;
};

struct NamedProgram {
  std::string name;
  tree::ParseTree tree;
};

/// Small deterministic corpus covering every generator shape: balanced
/// and skewed recursion, spawn chains (the depth-adversarial case),
/// random SP trees, and the access-carrying kernels.
inline std::vector<NamedProgram> corpus() {
  std::vector<NamedProgram> out;
  auto add = [&out](std::string name, fj::FjProg p) {
    out.push_back({std::move(name), fj::lower_to_parse_tree(p)});
  };
  add("fib(8)", fj::make_fib(8));
  add("fib(10)", fj::make_fib(10));
  add("balanced(5)", fj::make_balanced(5));
  add("balanced(7)", fj::make_balanced(7));
  add("loop_spawn(32)", fj::make_loop_spawn(32));
  add("loop_sync(40,4)", fj::make_loop_sync(40, 4));
  add("loop_sync(33,5)", fj::make_loop_sync(33, 5));
  add("dnc_fill(64,4)", fj::make_dnc_fill(64, 4));
  add("reduce_sum(64,4)", fj::make_reduce_sum(64, 4));
  add("stencil(32,4)", fj::make_stencil(32, 4));
  add("locked_accumulator(32,4)", fj::make_locked_accumulator(32, 4));
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    add("random(seed=" + std::to_string(seed) + ")",
        fj::make_random_program(seed, 150));
  return out;
}

/// Checks every completed thread against the current thread `v` — the
/// on-the-fly query pattern race detectors issue, valid for every
/// backend.
inline void expect_current_matches_oracle(tree::SpMaintenance& algo,
                                          const Oracle& oracle,
                                          tree::ThreadId v,
                                          const std::string& name) {
  for (tree::ThreadId u = 0; u < v; ++u) {
    ASSERT_EQ(algo.precedes(u, v), oracle.precedes(u, v))
        << name << ": on-the-fly precedes(" << u << ", " << v << ")";
  }
}

/// Drives `algo` from a serial walk of `t`, checking the on-the-fly
/// queries at every thread.
inline void expect_matches_oracle_on_the_fly(const tree::ParseTree& t,
                                             tree::SpMaintenance& algo,
                                             const std::string& name) {
  class V final : public tree::MaintenanceDriver<> {
   public:
    V(tree::SpMaintenance& a, const Oracle& o, const std::string& n)
        : MaintenanceDriver(a), oracle_(o), name_(n) {}
    void visit_leaf(const tree::Node& n) override {
      MaintenanceDriver::visit_leaf(n);
      expect_current_matches_oracle(sp_, oracle_, n.thread, name_);
    }

   private:
    const Oracle& oracle_;
    const std::string& name_;
  };
  const Oracle oracle(t);
  V v(algo, oracle, name);
  serial_walk(t, v);
}

/// Drives `algo` over the whole tree, then checks precedes() for every
/// ordered thread pair against the oracle. Valid for algorithms whose
/// structure answers arbitrary completed-pair queries after the walk
/// (SP-order and the labeling schemes — not SP-bags).
inline void expect_matches_oracle_post_walk(const tree::ParseTree& t,
                                            tree::SpMaintenance& algo,
                                            const std::string& name) {
  tree::MaintenanceDriver driver(algo);
  serial_walk(t, driver);
  const Oracle oracle(t);
  const tree::ThreadId n = t.leaf_count();
  for (tree::ThreadId u = 0; u < n; ++u) {
    for (tree::ThreadId v = 0; v < n; ++v) {
      ASSERT_EQ(algo.precedes(u, v), oracle.precedes(u, v))
          << name << ": precedes(" << u << ", " << v << ") mismatch";
    }
  }
}

}  // namespace spr::testutil
