#pragma once
// Lowering from the n-ary fork-join IR (fjprog/generators.hpp) to the
// binary SP parse tree the maintenance algorithms consume. N-ary series
// and parallel compositions binarize into right-deep chains, so a single
// sync block of n spawns becomes a P-chain of nesting depth n (the shape
// that separates depth-bounded labelings from SP-bags/SP-order in
// Figure 3). Thread ids are assigned in English (serial) order.

#include <cstdint>
#include <utility>
#include <vector>

#include "fjprog/generators.hpp"
#include "sptree/sp_maintenance.hpp"

namespace spr::fj {

namespace detail {

inline tree::NodeId lower_node(const FjNode& n, tree::ParseTree& out) {
  switch (n.kind) {
    case FjKind::kLeaf: {
      const tree::NodeId id =
          out.add_node(tree::NodeKind::kLeaf, tree::kNoNode, tree::kNoNode,
                       n.work);
      out.add_accesses(out.node(id).thread, n.accesses);
      return id;
    }
    default: {
      const tree::NodeKind kind = n.kind == FjKind::kSeq
                                      ? tree::NodeKind::kSeries
                                      : tree::NodeKind::kParallel;
      if (n.children.empty())
        return out.add_node(tree::NodeKind::kLeaf);
      if (n.children.size() == 1) return lower_node(n.children[0], out);
      // Right-deep chain, built back to front so children exist before
      // their parent node is appended.
      std::vector<tree::NodeId> ids;
      ids.reserve(n.children.size());
      for (const FjNode& c : n.children) ids.push_back(lower_node(c, out));
      tree::NodeId right = ids.back();
      for (std::size_t i = ids.size() - 1; i-- > 0;)
        right = out.add_node(kind, ids[i], right);
      return right;
    }
  }
}

}  // namespace detail

inline tree::ParseTree lower_to_parse_tree(const FjProg& prog) {
  tree::ParseTree t;
  const tree::NodeId root = detail::lower_node(prog.root, t);
  t.set_root(root);
  return t;
}

}  // namespace spr::fj
