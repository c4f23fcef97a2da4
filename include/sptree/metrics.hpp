#pragma once
// Static metrics of an SP parse tree: thread count, fork count, maximum
// P-nesting depth, and the work/span quantities (T1, Tinf) the scaling
// benches compare against Theorem 10's O((T1/P + P*Tinf) lg n) bound.
// Each leaf costs work + 1 so trees of zero-work leaves still have
// positive work and span, and each internal node costs 1 in both: the
// fork or sync step an executor takes there. The span thus counts
// nesting depth: a spawn chain of n threads has Tinf > n, so the
// O(P*Tinf) steal bound of Theorem 10 can be checked on its steals.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sptree/sp_maintenance.hpp"

namespace spr::tree {

struct Metrics {
  std::uint64_t threads = 0;      ///< n: number of leaves
  std::uint64_t p_nodes = 0;      ///< f: number of forks (P-nodes)
  std::uint64_t s_nodes = 0;
  std::uint64_t max_p_depth = 0;  ///< d: deepest P-nesting
  std::uint64_t work = 0;         ///< T1: total node cost
  std::uint64_t span = 0;         ///< Tinf: critical-path node cost
};

inline Metrics compute_metrics(const ParseTree& t) {
  Metrics m;
  m.threads = t.leaf_count();
  if (t.root() == kNoNode) return m;
  // Post-order accumulation of (work, span) per node, iteratively.
  const std::uint32_t n = t.node_count();
  std::vector<std::uint64_t> work(n, 0), span(n, 0);
  struct Frame {
    NodeId id;
    std::uint64_t p_depth;
    bool expanded;
  };
  std::vector<Frame> stack;
  stack.push_back({t.root(), 0, false});
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const Node& node = t.node(f.id);
    const auto idx = static_cast<std::size_t>(f.id);
    if (node.kind == NodeKind::kLeaf) {
      work[idx] = span[idx] = node.work + 1;
      m.max_p_depth = std::max(m.max_p_depth, f.p_depth);
      continue;
    }
    if (!f.expanded) {
      if (node.kind == NodeKind::kParallel)
        ++m.p_nodes;
      else
        ++m.s_nodes;
      const std::uint64_t child_depth =
          f.p_depth + (node.kind == NodeKind::kParallel ? 1 : 0);
      stack.push_back({f.id, f.p_depth, true});
      stack.push_back({node.left, child_depth, false});
      stack.push_back({node.right, child_depth, false});
      continue;
    }
    const auto l = static_cast<std::size_t>(node.left);
    const auto r = static_cast<std::size_t>(node.right);
    work[idx] = work[l] + work[r] + 1;
    span[idx] = 1 + (node.kind == NodeKind::kParallel
                         ? std::max(span[l], span[r])
                         : span[l] + span[r]);
  }
  const auto root = static_cast<std::size_t>(t.root());
  m.work = work[root];
  m.span = span[root];
  return m;
}

}  // namespace spr::tree
