#pragma once
// Serial (English-order) walk of an SP parse tree: the execution model of
// a single-processor fork-join run. The walk visits leaves exactly in
// thread-id order and brackets every internal node with enter / between /
// leave callbacks; MaintenanceDriver below turns those into the fork /
// switch / join / thread-begin events an SP-maintenance algorithm sees.

#include <vector>

#include "sptree/sp_maintenance.hpp"

namespace spr::tree {

class WalkVisitor {
 public:
  virtual ~WalkVisitor() = default;
  virtual void enter_internal(const Node&) {}
  virtual void between_children(const Node&) {}
  virtual void leave_internal(const Node&) {}
  virtual void visit_leaf(const Node&) {}
  virtual void leave_leaf(const Node&) {}
};

/// Depth-first left-to-right walk; iterative so deep spawn chains (e.g.
/// loop_spawn with 10^5 threads) cannot overflow the call stack.
inline void serial_walk(const ParseTree& t, WalkVisitor& v) {
  if (t.root() == kNoNode) return;
  // Explicit stack of (node, stage): stage 0 = not yet entered,
  // 1 = left child done, 2 = right child done.
  struct Frame {
    NodeId id;
    int stage;
  };
  std::vector<Frame> stack;
  stack.push_back({t.root(), 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    const Node& n = t.node(f.id);
    if (n.kind == NodeKind::kLeaf) {
      v.visit_leaf(n);
      v.leave_leaf(n);
      stack.pop_back();
      continue;
    }
    switch (f.stage) {
      case 0:
        v.enter_internal(n);
        f.stage = 1;
        stack.push_back({n.left, 0});
        break;
      case 1:
        v.between_children(n);
        f.stage = 2;
        stack.push_back({n.right, 0});
        break;
      default:
        v.leave_internal(n);
        stack.pop_back();
        break;
    }
  }
}

/// The tree-to-event source: turns a serial walk into the structural
/// events of an SP-maintenance algorithm. `Sp` is SpMaintenance or any
/// concrete type with the same on_* methods (statically bound calls).
/// Subclasses that act at each thread override visit_leaf and call this
/// one first, so the thread is current before they query.
template <typename Sp = SpMaintenance>
class MaintenanceDriver : public WalkVisitor {
 public:
  explicit MaintenanceDriver(Sp& sp) : sp_(sp) {}
  void enter_internal(const Node& n) override {
    sp_.on_fork(n.kind == NodeKind::kSeries);
  }
  void between_children(const Node&) override { sp_.on_switch(); }
  void leave_internal(const Node&) override { sp_.on_join(); }
  void visit_leaf(const Node& n) override { sp_.on_thread_begin(n.thread); }

 protected:
  Sp& sp_;
};

}  // namespace spr::tree
