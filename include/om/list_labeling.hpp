#pragma once
// Density-window relabeling: the one gap rule of every OM tier with no
// size bound (OrderList's top level, SP-hybrid's SegmentList). Only
// OrderList's <= 64-item bucket rebalance and LabeledList's
// baseline relabel_all renumber a whole list instead.
//
// `fresh` has just been linked right after `prev`, unlabeled. The
// smallest aligned window [base, base + 2^i) around prev's label whose
// occupancy (fresh included) is below the level's overflow threshold is
// spread evenly; nodes outside it keep their labels. Thresholds decay
// geometrically with window size (tau = 2^(1/4)), which makes the cost
// amortize to O(lg n) label writes per insert instead of degrading
// quadratically under single-point insertion storms.
//
// `label(node)` reads and `set(node, value)` writes a label, so atomic
// labels work too. Windows are at most 2^max_log wide (max_log <= 63).
// Returns the number of labels written.

#include <cstdint>

namespace spr::om {

template <class Node, class LabelFn, class SetFn>
std::uint64_t relabel_window(Node* prev, Node* fresh, int max_log,
                             LabelFn label, SetFn set) {
  // Spreads the `count` nodes [first .. last] evenly over the window.
  const auto spread = [&set](Node* first, Node* last, std::uint64_t base,
                             std::uint64_t width, std::uint64_t count) {
    const std::uint64_t stride = width / (count + 1);
    std::uint64_t l = base;
    for (Node* cur = first;; cur = cur->next) {
      set(cur, l += stride);
      if (cur == last) return count;
    }
  };
  const std::uint64_t lo = label(prev);
  for (int i = 6; i <= max_log; ++i) {
    const std::uint64_t width = 1ULL << i;
    const std::uint64_t base = lo & ~(width - 1);
    Node* first = prev;
    std::uint64_t count = 2;  // prev and fresh
    while (first->prev != nullptr && label(first->prev) >= base) {
      first = first->prev;
      ++count;
    }
    Node* last = fresh;
    while (last->next != nullptr && label(last->next) - base < width) {
      last = last->next;
      ++count;
    }
    if (count + 1 <= (width >> 1) && count <= (width >> (i / 4)))
      return spread(first, last, base, width, count);
  }
  // Unreachable for any feasible list size (2^(max_log - 1) nodes);
  // renumber the whole run as a last resort.
  Node* first = prev;
  Node* last = fresh;
  std::uint64_t count = 2;
  for (; first->prev != nullptr; ++count) first = first->prev;
  for (; last->next != nullptr; ++count) last = last->next;
  return spread(first, last, 0, 1ULL << max_log, count);
}

}  // namespace spr::om
