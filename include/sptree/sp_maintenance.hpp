#pragma once
// The SP parse tree of a fork-join program (Section 2 of the paper) and
// the abstract interface every serial SP-maintenance algorithm implements.
//
// A fork-join program's dag is represented by a binary SP parse tree:
// leaves are threads (maximal instruction sequences without parallel
// control), S-nodes compose their children in series (left executes
// before right), and P-nodes compose them in parallel. Two threads u, v
// with u before v in English (serial, left-to-right) order satisfy
//   u || v  iff  LCA(u, v) is a P-node,
//   u <  v  iff  LCA(u, v) is an S-node.
//
// SP-maintenance algorithms consume an execution as fork / switch / join /
// thread-begin events (SpMaintenance below) and answer precedes() queries
// on-the-fly: at the time thread v executes, any completed thread u may be
// queried.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spr::tree {

using ThreadId = std::uint32_t;
using NodeId = std::int32_t;

inline constexpr NodeId kNoNode = -1;
inline constexpr ThreadId kNoThread = ~ThreadId{0};

enum class NodeKind : std::uint8_t { kLeaf, kSeries, kParallel };

/// One memory access performed by a thread; `locks` is a bitmask of the
/// locks held at the access (used by the ALL-SETS detector).
struct Access {
  std::uint64_t loc = 0;
  bool write = false;
  std::uint64_t locks = 0;
};

struct Node {
  NodeKind kind = NodeKind::kLeaf;
  NodeId id = kNoNode;
  NodeId parent = kNoNode;
  NodeId left = kNoNode;
  NodeId right = kNoNode;
  ThreadId thread = kNoThread;  ///< valid for leaves only
  std::uint64_t work = 0;       ///< spin iterations this thread performs
};

class ParseTree {
 public:
  ParseTree() = default;

  /// Appends a node and returns its id. Children must already exist.
  NodeId add_node(NodeKind kind, NodeId left = kNoNode,
                  NodeId right = kNoNode, std::uint64_t work = 0) {
    const NodeId id = static_cast<NodeId>(nodes_.size());
    Node n;
    n.kind = kind;
    n.id = id;
    n.left = left;
    n.right = right;
    n.work = work;
    if (kind == NodeKind::kLeaf) {
      n.thread = static_cast<ThreadId>(leaf_accesses_.size());
      leaf_accesses_.emplace_back();
      leaf_ids_.push_back(id);
    }
    nodes_.push_back(n);
    if (left != kNoNode) nodes_[static_cast<std::size_t>(left)].parent = id;
    if (right != kNoNode) nodes_[static_cast<std::size_t>(right)].parent = id;
    return id;
  }

  void set_root(NodeId id) { root_ = id; }
  NodeId root() const { return root_; }

  const Node& node(NodeId id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  const Node& leaf(ThreadId t) const {
    return nodes_[static_cast<std::size_t>(leaf_ids_[t])];
  }

  std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  std::uint32_t leaf_count() const {
    return static_cast<std::uint32_t>(leaf_ids_.size());
  }

  std::vector<Access>& mutable_accesses(ThreadId t) {
    return leaf_accesses_[t];
  }
  const std::vector<Access>& accesses(ThreadId t) const {
    return leaf_accesses_[t];
  }

  std::size_t memory_bytes() const {
    std::size_t bytes = sizeof(*this) + nodes_.capacity() * sizeof(Node) +
                        leaf_ids_.capacity() * sizeof(NodeId);
    for (const auto& a : leaf_accesses_)
      bytes += a.capacity() * sizeof(Access);
    return bytes;
  }

 private:
  std::vector<Node> nodes_;
  std::vector<NodeId> leaf_ids_;                   ///< thread -> node id
  std::vector<std::vector<Access>> leaf_accesses_;  ///< thread -> accesses
  NodeId root_ = kNoNode;
};

/// Interface of a serial on-the-fly SP-maintenance algorithm: the four
/// structural events of an English-order execution, the same kinds as
/// race::stream::EventKind. Every subtree arrives as
///   on_fork(series) <left subtree> on_switch() <right subtree> on_join()
/// or, for a leaf, on_thread_begin(t) with thread ids in English order.
/// Any event source works: a serial walk (walk.hpp's MaintenanceDriver), a
/// recorded trace, or a client stream. Between any two events,
/// precedes(u, v) must answer correctly for any completed thread u and the
/// currently executing thread v (algorithms whose structure survives the
/// run, like SP-order and the labeling schemes, also answer arbitrary
/// completed-pair queries).
class SpMaintenance {
 public:
  virtual ~SpMaintenance() = default;

  virtual void on_fork(bool series) = 0;
  virtual void on_switch() = 0;
  virtual void on_join() = 0;
  virtual void on_thread_begin(ThreadId t) = 0;

  /// Strict precedence: true iff u != v and u serially precedes v.
  virtual bool precedes(ThreadId u, ThreadId v) = 0;

  virtual std::size_t memory_bytes() const = 0;
};

}  // namespace spr::tree
