#pragma once
// Two-level order-maintenance list with amortized O(1) insert and O(1)
// worst-case order queries (Bender et al. style; Section 2 of the paper
// uses this as the substrate for SP-order).
//
// Like LabeledList, the list is born holding one root item and grows
// only by insert_after: an SP-order starts from one item and every split
// mints its items after a base.
//
// Items live in buckets of at most kBucketCap elements. Each item carries
// a 64-bit local label unique within its bucket; each bucket carries a
// 64-bit top label maintained by density-window relabeling
// (om/list_labeling.hpp, shared with SP-hybrid's global tier). An order
// query compares (bucket label, item label) lexicographically. Inserting
// into a full bucket splits it; a split inserts one bucket label into the
// top level, whose relabeling cost amortizes to O(lg n) per split, i.e.
// O(lg n / kBucketCap) = O(1) per item insert for any practical n.
//
// Item pointers are stable until explicitly erased: relabeling rewrites
// label fields and bucket links but never moves or frees nodes, and
// erase() frees only the erased node (plus its bucket once empty).
//
// Items and buckets come from per-list free-list pools (util/arena.hpp):
// inserts are pointer bumps, erase/insert churn recycles slots, and the
// whole list frees in O(#chunks) at destruction — the fix for the
// super-linear tail the thm5 bench showed at 640k threads when every
// item was an individual new/delete.

#include <cstddef>
#include <cstdint>

#include "om/list_labeling.hpp"
#include "util/arena.hpp"

namespace spr::om {

class OrderList {
 public:
  struct Stats {
    std::uint64_t inserts = 0;        ///< items inserted
    std::uint64_t erases = 0;         ///< items reclaimed
    std::uint64_t items_moved = 0;    ///< item+bucket label rewrites
    std::uint64_t bucket_splits = 0;  ///< bottom-level splits
    std::uint64_t buckets_freed = 0;  ///< emptied buckets reclaimed
    std::uint64_t top_relabels = 0;   ///< top-level range relabel events
  };

  struct Bucket;

  struct Item {
    std::uint64_t label = 0;
    Item* prev = nullptr;  ///< within bucket
    Item* next = nullptr;  ///< within bucket
    Bucket* bucket = nullptr;
  };

  struct Bucket {
    std::uint64_t label = 0;
    Bucket* prev = nullptr;
    Bucket* next = nullptr;
    Item* first = nullptr;
    Item* last = nullptr;
    std::uint32_t count = 0;
  };

  /// Creates the list with its one root item; every other item is
  /// inserted after it, directly or transitively.
  OrderList() {
    Bucket* b = bucket_pool_.create();
    b->label = kTopMax / 2;
    root_ = new_item(kLocalMax / 2, b);
    b->first = b->last = root_;
    b->count = 1;
    size_ = 1;
    stats_.inserts = 1;
  }
  OrderList(const OrderList&) = delete;
  OrderList& operator=(const OrderList&) = delete;

  // Pools reclaim every node in bulk; no per-node teardown needed.
  ~OrderList() = default;

  /// The first item, created with the list (dangles once erased).
  Item* root() const { return root_; }

  /// Inserts a new item immediately after `x`.
  Item* insert_after(Item* x) {
    Bucket* b = x->bucket;
    if (b->count >= kBucketCap) {
      split(b);
      b = x->bucket;  // x may now live in the new right half
    }
    Item* succ = x->next;
    const std::uint64_t hi = succ != nullptr ? succ->label : kLocalMax;
    if (hi - x->label < 2) {
      rebalance(b);
      succ = x->next;
    }
    const std::uint64_t hi2 = succ != nullptr ? succ->label : kLocalMax;
    Item* item = new_item(x->label + (hi2 - x->label) / 2, b);
    item->prev = x;
    item->next = succ;
    x->next = item;
    if (succ != nullptr)
      succ->prev = item;
    else
      b->last = item;
    ++b->count;
    ++size_;
    ++stats_.inserts;
    return item;
  }

  /// Erases `x`, reclaiming its node (and its bucket, if emptied). The
  /// caller must not dereference `x` afterward. Deletion never perturbs
  /// labels, so every other Item pointer and all orderings survive.
  void erase(Item* x) {
    Bucket* b = x->bucket;
    if (x->prev != nullptr)
      x->prev->next = x->next;
    else
      b->first = x->next;
    if (x->next != nullptr)
      x->next->prev = x->prev;
    else
      b->last = x->prev;
    --b->count;
    --size_;
    ++stats_.erases;
    item_pool_.destroy(x);
    if (b->count == 0) {
      if (b->prev != nullptr) b->prev->next = b->next;
      if (b->next != nullptr) b->next->prev = b->prev;
      ++stats_.buckets_freed;
      bucket_pool_.destroy(b);
    }
  }

  /// True iff `a` is strictly before `b` in the maintained order.
  bool precedes(const Item* a, const Item* b) const {
    if (a->bucket != b->bucket) return a->bucket->label < b->bucket->label;
    return a->label < b->label;
  }

  std::size_t size() const { return size_; }
  const Stats& stats() const { return stats_; }

  std::size_t memory_bytes() const {
    return sizeof(*this) + item_pool_.memory_bytes() +
           bucket_pool_.memory_bytes();
  }

 private:
  static constexpr std::uint32_t kBucketCap = 64;
  static constexpr std::uint64_t kLocalMax = ~0ULL;
  static constexpr int kTopLog = 62;
  static constexpr std::uint64_t kTopMax = 1ULL << kTopLog;  // top labels

  Item* new_item(std::uint64_t label, Bucket* b) {
    Item* it = item_pool_.create();
    it->label = label;
    it->bucket = b;
    return it;
  }

  /// Re-spaces all local labels of `b` evenly across the label universe.
  void rebalance(Bucket* b) {
    const std::uint64_t stride = kLocalMax / (b->count + 1);
    std::uint64_t label = stride;
    for (Item* it = b->first; it != nullptr; it = it->next) {
      it->label = label;
      label += stride;
      ++stats_.items_moved;
    }
  }

  /// Splits `b` into two buckets of half the items each, re-spacing local
  /// labels in both and inserting the new bucket's top label.
  void split(Bucket* b) {
    ++stats_.bucket_splits;
    Bucket* nb = bucket_pool_.create();
    // Move the latter half of b's items into nb (relinking only; item
    // nodes stay put so external pointers survive).
    const std::uint32_t keep = b->count / 2;
    Item* it = b->first;
    for (std::uint32_t i = 1; i < keep; ++i) it = it->next;
    nb->first = it->next;
    nb->last = b->last;
    nb->count = b->count - keep;
    b->last = it;
    b->count = keep;
    it->next = nullptr;
    nb->first->prev = nullptr;
    for (Item* m = nb->first; m != nullptr; m = m->next) m->bucket = nb;
    // Link nb after b in the bucket list.
    nb->prev = b;
    nb->next = b->next;
    if (b->next != nullptr) b->next->prev = nb;
    b->next = nb;
    assign_top_label(b, nb);
    rebalance(b);
    rebalance(nb);
  }

  /// Gives the freshly linked `nb` (successor of `b`) a top label: the
  /// midpoint of the gap to the next bucket, or a density-window relabel
  /// (om/list_labeling.hpp) when the gap is gone.
  void assign_top_label(Bucket* b, Bucket* nb) {
    const std::uint64_t lo = b->label;
    const std::uint64_t hi = nb->next != nullptr ? nb->next->label : kTopMax;
    if (hi - lo >= 2) {
      nb->label = lo + (hi - lo) / 2;
      return;
    }
    stats_.items_moved += relabel_window(
        b, nb, kTopLog, [](const Bucket* x) { return x->label; },
        [](Bucket* x, std::uint64_t l) { x->label = l; });
    ++stats_.top_relabels;
  }

  Item* root_ = nullptr;
  std::size_t size_ = 0;
  Stats stats_;
  util::Pool<Item> item_pool_;
  util::Pool<Bucket> bucket_pool_;
};

}  // namespace spr::om
