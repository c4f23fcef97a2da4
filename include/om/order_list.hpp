#pragma once
// Two-level order-maintenance list with amortized O(1) insert and O(1)
// worst-case order queries (Bender et al. style; Section 2 of the paper
// uses this as the substrate for SP-order, and SP-hybrid's global tier,
// sphybrid/global_tier.hpp, runs on two of them).
//
// Like LabeledList, the list is born holding one root item and grows
// only by insert_after: an SP-order starts from one item and every split
// mints its items after a base.
//
// Items live in buckets of at most kBucketCap elements. Each item carries
// a 64-bit local label unique within its bucket; each bucket carries a
// 64-bit top label maintained by density-window relabeling
// (relabel_top). An order query compares (bucket label, item label)
// lexicographically. Inserting into a full bucket splits it; a split
// inserts one bucket label into the top level, whose relabeling cost
// amortizes to O(lg n) per split, i.e. O(lg n / kBucketCap) = O(1) per
// item insert for any practical n.
//
// Item pointers are stable until explicitly erased: relabeling rewrites
// label fields and bucket links but never moves or frees nodes, and
// erase() frees only the erased node (plus its bucket once empty).
//
// Concurrency: the list takes no lock and keeps no version. The three
// fields precedes() reads (item label, bucket label, Item::bucket) are
// spr::atomic, rewritten with release stores and loaded with kLabelRead
// (acquire), so a caller can validate precedes() against concurrent
// inserts with its own seqlock (sphybrid/global_tier.hpp). On x86 both
// orders compile to plain moves; serial callers pay only for the
// compiler ordering around them (1-2% on spbench's service workloads).
//
// Items and buckets come from per-list free-list pools (util/arena.hpp):
// inserts are pointer bumps, erase/insert churn recycles slots, and the
// whole list frees in O(#chunks) at destruction — the fix for the
// super-linear tail the thm5 bench showed at 640k threads when every
// item was an individual new/delete.

#include <cstddef>
#include <cstdint>

#include "util/arena.hpp"
#include "util/atomics.hpp"

namespace spr::om {

class OrderList {
 public:
  // Every load in precedes(). The MC suite demotes it to relaxed
  // (-DSPR_MC_SEED_BUG_SEQLOCK_RELAXED, MC builds only) to prove the
  // checker catches the torn label pair a seqlock reader then validates.
#if defined(SPR_MODEL_CHECK) && defined(SPR_MC_SEED_BUG_SEQLOCK_RELAXED)
  static constexpr std::memory_order kLabelRead =
      std::memory_order_relaxed;  // SEEDED BUG — never set outside MC
#else
  static constexpr std::memory_order kLabelRead = std::memory_order_acquire;
#endif

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
    spr::atomic<std::uint64_t> label{0};
    Item* prev = nullptr;  ///< within bucket
    Item* next = nullptr;  ///< within bucket
    spr::atomic<Bucket*> bucket{nullptr};
  };

  struct Bucket {
    spr::atomic<std::uint64_t> label{0};
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
    b->label.store(kTopMax / 2, std::memory_order_relaxed);
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
    Bucket* b = bucket_of(x);
    if (b->count >= kBucketCap) {
      split(b);
      b = bucket_of(x);  // x may now live in the new right half
    }
    if (gap_after(x) < 2) rebalance(b);
    Item* const succ = x->next;
    Item* item = new_item(label_of(x) + gap_after(x) / 2, b);
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
    Bucket* b = bucket_of(x);
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
    const Bucket* const ba = a->bucket.load(kLabelRead);
    const Bucket* const bb = b->bucket.load(kLabelRead);
    if (ba != bb)
      return ba->label.load(kLabelRead) < bb->label.load(kLabelRead);
    return a->label.load(kLabelRead) < b->label.load(kLabelRead);
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

  // The writer's own reads: only the writer rewrites these fields.
  static Bucket* bucket_of(const Item* x) {
    return x->bucket.load(std::memory_order_relaxed);
  }
  static std::uint64_t label_of(const Item* x) {
    return x->label.load(std::memory_order_relaxed);
  }
  static std::uint64_t label_of(const Bucket* b) {
    return b->label.load(std::memory_order_relaxed);
  }

  /// Free local labels between `x` and its successor in the bucket.
  static std::uint64_t gap_after(const Item* x) {
    return (x->next != nullptr ? label_of(x->next) : kLocalMax) - label_of(x);
  }

  /// A fresh item: unreachable by any reader until the caller hands it
  /// out, so its fields need no release.
  Item* new_item(std::uint64_t label, Bucket* b) {
    Item* it = item_pool_.create();
    it->label.store(label, std::memory_order_relaxed);
    it->bucket.store(b, std::memory_order_relaxed);
    return it;
  }

  /// Re-spaces all local labels of `b` evenly across the label universe.
  void rebalance(Bucket* b) {
    const std::uint64_t stride = kLocalMax / (b->count + 1);
    std::uint64_t label = stride;
    for (Item* it = b->first; it != nullptr; it = it->next) {
      it->label.store(label, std::memory_order_release);
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
    for (Item* m = nb->first; m != nullptr; m = m->next)
      m->bucket.store(nb, std::memory_order_release);
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
  /// midpoint of the gap to the next bucket, or relabel_top when the gap
  /// is gone.
  void assign_top_label(Bucket* b, Bucket* nb) {
    const std::uint64_t lo = label_of(b);
    const std::uint64_t hi =
        nb->next != nullptr ? label_of(nb->next) : kTopMax;
    if (hi - lo >= 2) {
      nb->label.store(lo + (hi - lo) / 2, std::memory_order_release);
      return;
    }
    stats_.items_moved += relabel_top(b, nb);
    ++stats_.top_relabels;
  }

  /// Density-window relabel of the top level (Bender et al.): `fresh`
  /// has just been linked right after `prev`, unlabeled. The smallest
  /// aligned window [base, base + 2^i) around prev's label whose
  /// occupancy (fresh included) is below the level's overflow threshold
  /// is spread evenly; buckets outside it keep their labels. Thresholds
  /// decay geometrically with window size (tau = 2^(1/4)), so the cost
  /// amortizes to O(lg n) label writes per bucket split instead of
  /// degrading quadratically under single-point insertion storms.
  /// Returns the number of labels written.
  static std::uint64_t relabel_top(Bucket* prev, Bucket* fresh) {
    const std::uint64_t lo = label_of(prev);
    Bucket* first = prev;
    Bucket* last = fresh;
    std::uint64_t count = 2;  // prev and fresh
    std::uint64_t base = 0;
    std::uint64_t width = kTopMax;
    // Windows nest, so each level widens the last one's [first, last].
    // The widest, [0, kTopMax), holds every bucket: if no level passes
    // (impossible below 2^(kTopLog - 1) buckets), the whole level is
    // renumbered.
    for (int i = 6; i <= kTopLog; ++i) {
      const std::uint64_t w = 1ULL << i;
      const std::uint64_t bw = lo & ~(w - 1);
      while (first->prev != nullptr && label_of(first->prev) >= bw) {
        first = first->prev;
        ++count;
      }
      while (last->next != nullptr && label_of(last->next) - bw < w) {
        last = last->next;
        ++count;
      }
      if (count + 1 <= (w >> 1) && count <= (w >> (i / 4))) {
        base = bw;
        width = w;
        break;
      }
    }
    const std::uint64_t stride = width / (count + 1);
    std::uint64_t l = base;
    for (Bucket* cur = first;; cur = cur->next) {
      cur->label.store(l += stride, std::memory_order_release);
      if (cur == last) return count;
    }
  }

  Item* root_ = nullptr;
  std::size_t size_ = 0;
  Stats stats_;
  util::Pool<Item> item_pool_;
  util::Pool<Bucket> bucket_pool_;
};

}  // namespace spr::om
