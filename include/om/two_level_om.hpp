#pragma once
// TwoLevelOm: the paper's Section 4 two-level CONCURRENT order-maintenance
// structure. Items live in groups of at most kGroupCap elements; each item
// carries a 64-bit label local to its group, each group a 64-bit top-level
// label maintained by density-based localized relabeling (the same
// tau = 2^(1/4) window scheme as the serial om/order_list.hpp).
//
// Concurrency design — no global mutex on the insert hot path:
//  - insert_after(x) takes only x's GROUP spinlock; a gap exhaustion
//    relabels just that group (under the group's seqlock), never the
//    whole list. Inserts into different groups proceed fully in parallel;
//    lock_waits() counts contended acquisitions and stays ~0 when
//    writers work disjoint regions (the SP-hybrid access pattern).
//  - a full group splits: the RARE path (once per kGroupCap/2 inserts at
//    one point) takes the top spinlock, then both group locks, links a
//    new group, assigns it a top label (localized window relabel when the
//    gap is gone) and moves the latter half of the items. All top-label
//    writes and item->group moves happen inside a top seqlock (topver_)
//    write section.
//  - precedes(a, b) is lock-free: same group -> compare local labels
//    under the group seqlock; different groups -> compare top labels.
//    Both branches validate topver_, so a concurrent split (which moves
//    items between groups and rewrites top labels) forces a retry rather
//    than a torn answer. Label loads are ACQUIRE for the same one-way-
//    barrier reason documented in om/concurrent_om.hpp; the relaxed
//    re-check of the version then cannot be reordered before them.
//
// Lock ordering: top lock, then group locks (split path only). The insert
// path holds a single group lock and never acquires the top lock, so the
// scheme is deadlock-free. Under -DSPR_MODEL_CHECK the group capacity
// drops to 4 so the checker reaches the split path in small episodes.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "om/backend.hpp"
#include "util/atomics.hpp"

namespace spr::om {

class TwoLevelOm {
 public:
  static constexpr const char* kName = "two-level";

  struct Group;

  struct Item {
    spr::atomic<std::uint64_t> label{0};
    spr::atomic<Group*> group{nullptr};
    Item* prev = nullptr;  ///< guarded by the owning group's spinlock
    Item* next = nullptr;  ///< guarded by the owning group's spinlock
  };

  struct Group {
    spr::atomic<std::uint64_t> label{0};  ///< top label; topver_ sections
    spr::atomic<std::uint64_t> ver{0};    ///< seqlock for local relabels
    spr::atomic_flag lock;  // C++20: default-initialized clear
    Group* prev = nullptr;  ///< guarded by the top spinlock
    Group* next = nullptr;  ///< guarded by the top spinlock
    Item* head = nullptr;   ///< guarded by this group's spinlock
    Item* tail = nullptr;
    std::size_t count = 0;
  };

  TwoLevelOm() {
    Group* g = register_group();
    g->label.store(kTopMax / 2, std::memory_order_relaxed);
    ghead_ = g;
    base_ = new Item;
    base_->group.store(g, std::memory_order_relaxed);
    g->head = g->tail = base_;
    g->count = 1;
    size_.store(1, std::memory_order_relaxed);
  }
  TwoLevelOm(const TwoLevelOm&) = delete;
  TwoLevelOm& operator=(const TwoLevelOm&) = delete;

  ~TwoLevelOm() {
    for (auto& g : groups_) {
      Item* it = g->head;
      while (it != nullptr) {
        Item* nx = it->next;
        delete it;
        it = nx;
      }
    }
  }

  /// Sentinel item that precedes every inserted item.
  Item* base() const { return base_; }

  Item* insert_after(Item* x) {
    Item* it = new Item;
    for (;;) {
      Group* g = x->group.load(std::memory_order_acquire);
      acquire(g->lock);
      if (x->group.load(std::memory_order_relaxed) != g) {
        g->lock.clear(std::memory_order_release);  // split moved x; retry
        continue;
      }
      if (g->count >= kGroupCap) {
        g->lock.clear(std::memory_order_release);
        split_group(g);
        continue;
      }
      const std::uint64_t lo = x->label.load(std::memory_order_relaxed);
      const std::uint64_t hi =
          x->next != nullptr ? x->next->label.load(std::memory_order_relaxed)
                             : kLocalMax;
      it->group.store(g, std::memory_order_relaxed);
      link_after_locked(g, x, it);
      if (hi - lo < 2) {
        relabel_group_locked(g);
        local_relabels_.fetch_add(1, std::memory_order_relaxed);
      } else {
        it->label.store(lo + (hi - lo) / 2, std::memory_order_release);
      }
      size_.fetch_add(1, std::memory_order_relaxed);
      g->lock.clear(std::memory_order_release);
      return it;
    }
  }

  /// Lock-free order query; retries while a relabel or split is in
  /// flight. See the header comment for the validation scheme.
  bool precedes(const Item* a, const Item* b) const {
    for (int spins = 0;; ++spins) {
      if (spins >= kSpinYieldThreshold) spr::thread_yield();
      const std::uint64_t t0 = topver_.load(std::memory_order_acquire);
      if (t0 & 1) continue;  // split in flight
      Group* ga = a->group.load(std::memory_order_acquire);
      Group* gb = b->group.load(std::memory_order_acquire);
      if (ga == gb) {
        const std::uint64_t v0 = ga->ver.load(std::memory_order_acquire);
        if (v0 & 1) continue;  // local relabel in flight
        const std::uint64_t la = a->label.load(std::memory_order_acquire);
        const std::uint64_t lb = b->label.load(std::memory_order_acquire);
        if (ga->ver.load(std::memory_order_relaxed) == v0 &&
            topver_.load(std::memory_order_relaxed) == t0)
          return la < lb;
      } else {
        const std::uint64_t ta = ga->label.load(std::memory_order_acquire);
        const std::uint64_t tb = gb->label.load(std::memory_order_acquire);
        if (topver_.load(std::memory_order_relaxed) == t0) return ta < tb;
      }
      retries_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  std::uint64_t lock_waits() const {
    return lock_waits_.load(std::memory_order_relaxed);
  }
  std::uint64_t query_retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  std::uint64_t splits() const {
    return splits_.load(std::memory_order_relaxed);
  }
  std::uint64_t local_relabels() const {
    return local_relabels_.load(std::memory_order_relaxed);
  }
  std::uint64_t top_relabels() const {
    return top_relabels_.load(std::memory_order_relaxed);
  }
  std::size_t group_count() const {
    return group_count_.load(std::memory_order_relaxed);
  }

  std::size_t memory_bytes() const {
    return sizeof(*this) + group_count() * sizeof(Group) +
           size() * sizeof(Item);
  }

 private:
  static constexpr std::uint64_t kTopMax = 1ULL << 62;
  // Shrunk universes under the model checker: an 8-bit local label space
  // makes gap exhaustion (-> relabel_group_locked) reachable after ~7
  // chained inserts, and a cap of 16 keeps the split path reachable in
  // one episode while leaving room for relabels below the cap. 64
  // matches om/order_list.hpp's bucket capacity.
#if defined(SPR_MODEL_CHECK)
  static constexpr std::uint64_t kLocalMax = 255;
  static constexpr std::size_t kGroupCap = 16;
  static constexpr int kSpinYieldThreshold = 1;
#else
  static constexpr std::uint64_t kLocalMax = ~0ULL;
  static constexpr std::size_t kGroupCap = 64;
  static constexpr int kSpinYieldThreshold = 64;
#endif

  /// Spinlock acquire that counts contended acquisitions (the shootout's
  /// lock_waits metric), yielding so a preempted holder can run.
  void acquire(spr::atomic_flag& f) {
    if (!f.test_and_set(std::memory_order_acquire)) return;
    lock_waits_.fetch_add(1, std::memory_order_relaxed);
    for (int spins = 0; f.test_and_set(std::memory_order_acquire);)
      if (++spins >= kSpinYieldThreshold) spr::thread_yield();
  }

  Group* register_group() {
    auto g = std::make_unique<Group>();
    Group* raw = g.get();
    groups_.push_back(std::move(g));  // ctor or under the top lock
    group_count_.fetch_add(1, std::memory_order_relaxed);
    return raw;
  }

  void link_after_locked(Group* g, Item* x, Item* item) {
    item->prev = x;
    item->next = x->next;
    if (x->next != nullptr)
      x->next->prev = item;
    else
      g->tail = item;
    x->next = item;
    ++g->count;
  }

  /// Re-spaces all local labels of `g` evenly, under g's seqlock so
  /// same-group readers retry instead of tearing. Caller holds g's lock.
  void relabel_group_locked(Group* g) {
    g->ver.fetch_add(1, std::memory_order_acq_rel);
    const std::uint64_t stride = kLocalMax / (g->count + 2);
    std::uint64_t label = stride;
    for (Item* it = g->head; it != nullptr; it = it->next) {
      it->label.store(label, std::memory_order_release);
      label += stride;
    }
    g->ver.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Splits the full group `g`: new group after it in the top list, the
  /// latter half of g's items moved over with fresh local labels. Top
  /// lock -> group locks; all moves/top-label writes inside a topver_
  /// write section so lock-free readers retry.
  void split_group(Group* g) {
    acquire(top_lock_);
    acquire(g->lock);
    if (g->count < kGroupCap) {  // raced with another split of g
      g->lock.clear(std::memory_order_release);
      top_lock_.clear(std::memory_order_release);
      return;
    }
    Group* ng = register_group();
    acquire(ng->lock);  // uncontendable (unpublished); keeps the invariant
    splits_.fetch_add(1, std::memory_order_relaxed);
    topver_.fetch_add(1, std::memory_order_acq_rel);
    ng->prev = g;
    ng->next = g->next;
    if (g->next != nullptr) g->next->prev = ng;
    g->next = ng;
    assign_top_label(g, ng);
    const std::size_t keep = g->count / 2;
    Item* it = g->head;
    for (std::size_t i = 1; i < keep; ++i) it = it->next;
    ng->head = it->next;
    ng->tail = g->tail;
    ng->count = g->count - keep;
    g->tail = it;
    g->count = keep;
    it->next = nullptr;
    ng->head->prev = nullptr;
    const std::uint64_t stride = kLocalMax / (ng->count + 2);
    std::uint64_t label = stride;
    for (Item* m = ng->head; m != nullptr; m = m->next) {
      m->group.store(ng, std::memory_order_release);
      m->label.store(label, std::memory_order_release);
      label += stride;
    }
    topver_.fetch_add(1, std::memory_order_acq_rel);
    ng->lock.clear(std::memory_order_release);
    g->lock.clear(std::memory_order_release);
    top_lock_.clear(std::memory_order_release);
  }

  /// Gives the freshly linked `ng` (successor of `g`) a top label; when
  /// the gap is gone, spreads the smallest feasible aligned window of
  /// groups (density threshold tau = 2^(1/4), as in om/order_list.hpp).
  /// Caller holds the top lock and an open topver_ write section.
  void assign_top_label(Group* g, Group* ng) {
    const std::uint64_t lo = g->label.load(std::memory_order_relaxed);
    const std::uint64_t hi = ng->next != nullptr
                                 ? ng->next->label.load(std::memory_order_relaxed)
                                 : kTopMax;
    if (hi - lo >= 2) {
      ng->label.store(lo + (hi - lo) / 2, std::memory_order_release);
      return;
    }
    for (int i = 6; i <= 62; ++i) {
      const std::uint64_t width = 1ULL << i;
      const std::uint64_t wbase = lo & ~(width - 1);
      Group* first = g;
      std::uint64_t count = 2;  // g and ng
      while (first->prev != nullptr &&
             first->prev->label.load(std::memory_order_relaxed) >= wbase) {
        first = first->prev;
        ++count;
      }
      Group* last = ng;
      while (last->next != nullptr &&
             last->next->label.load(std::memory_order_relaxed) - wbase <
                 width) {
        last = last->next;
        ++count;
      }
      if (count + 1 <= (width >> 1) && count <= (width >> (i / 4))) {
        const std::uint64_t stride = width / (count + 1);
        std::uint64_t label = wbase + stride;
        for (Group* cur = first;; cur = cur->next) {
          cur->label.store(label, std::memory_order_release);
          label += stride;
          if (cur == last) break;
        }
        top_relabels_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    // Unreachable for any feasible group count; renumber all as a last
    // resort.
    std::uint64_t label = 1;
    const std::uint64_t stride = kTopMax / (group_count() + 1);
    for (Group* cur = ghead_; cur != nullptr; cur = cur->next) {
      cur->label.store(label, std::memory_order_release);
      label += stride;
    }
    top_relabels_.fetch_add(1, std::memory_order_relaxed);
  }

  spr::atomic_flag top_lock_;
  spr::atomic<std::uint64_t> topver_{0};
  mutable spr::atomic<std::uint64_t> retries_{0};
  spr::atomic<std::uint64_t> lock_waits_{0};
  spr::atomic<std::uint64_t> splits_{0};
  spr::atomic<std::uint64_t> local_relabels_{0};
  spr::atomic<std::uint64_t> top_relabels_{0};
  spr::atomic<std::size_t> size_{0};
  spr::atomic<std::size_t> group_count_{0};
  Item* base_ = nullptr;
  Group* ghead_ = nullptr;  ///< first group; never unlinked
  std::vector<std::unique_ptr<Group>> groups_;  ///< guarded by top lock
};

static_assert(Backend<TwoLevelOm>);

}  // namespace spr::om
