#pragma once
// Two-tier total-order list: the SP-hybrid representation of one ordering
// (English or Hebrew) of the threads (Sections 4-6).
//
// The total order is chopped into contiguous SEGMENTS. The global tier is
// any om::Backend (om/backend.hpp) over one item per segment — default
// om::ConcurrentOrderList; the local tier gives
// every element a 64-bit label inside its segment. x < y holds iff
//   segment(x) == segment(y) ? label(x) < label(y)
//                            : segment(x) precedes segment(y) globally.
// This is correct for ANY contiguous segmentation of the sequence, which
// is what makes the steal protocol simple to reason about: a steal only
// has to cut the victim's segment at the stolen subtree's boundary items
// (split_tail below); every other operation stays segment-local.
//
// Concurrency contract (matches the scheduler's steal discipline):
//  - insert_after(x) is called only by the worker that currently owns the
//    region around x (the SP-order split rule guarantees exclusivity); a
//    per-segment spinlock serializes the rare case where a thief splits
//    the same segment concurrently.
//  - split_tail is called only on the steal path, serialized by a global
//    mutex; it is the ONLY operation that inserts into the global tier.
//  - less(a, b) is lock-free: a global seqlock version guards segment
//    reassignment (splits), a per-segment version guards local relabels,
//    and the global tier has its own seqlock. All protected data is
//    atomic, so the scheme is exact under ThreadSanitizer.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "om/backend.hpp"
#include "om/concurrent_om.hpp"
#include "util/atomics.hpp"

namespace spr::hybrid {

template <typename GlobalOm = om::ConcurrentOrderList>
  requires om::Backend<GlobalOm>
class BasicSegmentList {
 public:
  using GlobalItem = typename GlobalOm::Item;
  struct Segment;

  struct Item {
    spr::atomic<std::uint64_t> label{0};
    spr::atomic<Segment*> seg{nullptr};
    Item* prev = nullptr;  ///< guarded by the owning segment's spinlock
    Item* next = nullptr;  ///< guarded by the owning segment's spinlock
  };

  struct Segment {
    GlobalItem* gitem = nullptr;
    spr::atomic<std::uint64_t> lver{0};  ///< seqlock for local relabels
    spr::atomic_flag lock;  // C++20: default-initialized clear
    Item* head = nullptr;
    Item* tail = nullptr;
    std::size_t count = 0;

    void acquire() {
      // Yield after a few failed attempts: on oversubscribed (or 1-core)
      // hosts the holder may be preempted and spinning would livelock.
      for (int spins = 0; lock.test_and_set(std::memory_order_acquire);)
        if (++spins >= kSpinYieldThreshold) spr::thread_yield();
    }
    void release() { lock.clear(std::memory_order_release); }
  };

  BasicSegmentList() {
    Segment* s = new_segment(global_.base());
    root_ = alloc_item();
    root_->label.store(kMax / 2, std::memory_order_relaxed);
    root_->seg.store(s, std::memory_order_relaxed);
    s->head = s->tail = root_;
    s->count = 1;
  }
  BasicSegmentList(const BasicSegmentList&) = delete;
  BasicSegmentList& operator=(const BasicSegmentList&) = delete;

  ~BasicSegmentList() {
    for (auto& s : segments_) {
      Item* it = s->head;
      while (it != nullptr) {
        Item* nx = it->next;
        delete it;
        it = nx;
      }
    }
  }

  /// The single item the whole order starts from (the root subtree's base).
  Item* root() const { return root_; }

  /// Inserts a new element immediately after `x` in the total order.
  /// Caller must be the worker owning the region around `x`.
  Item* insert_after(Item* x) {
    Item* item = alloc_item();
    for (;;) {
      Segment* s = x->seg.load(std::memory_order_acquire);
      s->acquire();
      if (x->seg.load(std::memory_order_relaxed) != s) {
        s->release();  // a split moved x while we were locking; retry
        continue;
      }
      const std::uint64_t lo = x->label.load(std::memory_order_relaxed);
      const std::uint64_t hi =
          x->next != nullptr ? x->next->label.load(std::memory_order_relaxed)
                             : kMax;
      item->seg.store(s, std::memory_order_relaxed);
      link_after_locked(s, x, item);
      if (hi - lo < 2) {
        relabel_locked(s);
      } else {
        item->label.store(lo + (hi - lo) / 2, std::memory_order_release);
      }
      s->release();
      return item;
    }
  }

  /// Steal path only: moves the suffix [first .. tail] of first's segment
  /// into a fresh segment placed immediately after it in the global tier.
  /// One global-tier insertion. Serialized by an internal mutex.
  void split_tail(Item* first) {
    spr::lock_guard<spr::mutex> guard(split_mu_);
    Segment* src = first->seg.load(std::memory_order_relaxed);
    src->acquire();
    // Seqlock write section: queries retry while gver_ is odd.
    gver_.fetch_add(1, std::memory_order_acq_rel);
    Segment* dst = new_segment(global_.insert_after(src->gitem));
    // Hold dst's lock across the whole move: the moment an item's seg
    // pointer is republished below, the owner's insert_after may target
    // dst, and it must block until the suffix is fully linked/relabeled.
    dst->acquire();
    // Detach the suffix.
    Item* pred = first->prev;
    if (pred != nullptr) pred->next = nullptr;
    if (src->head == first) src->head = nullptr;
    src->tail = pred;
    dst->head = first;
    first->prev = nullptr;
    std::size_t moved = 0;
    Item* last = first;
    for (Item* it = first; it != nullptr; it = it->next) {
      it->seg.store(dst, std::memory_order_release);
      last = it;
      ++moved;
    }
    dst->tail = last;
    dst->count = moved;
    src->count -= moved;
    // Fresh, evenly spaced labels in the new segment.
    const std::uint64_t stride = kMax / (moved + 2);
    std::uint64_t label = stride;
    for (Item* it = dst->head; it != nullptr; it = it->next) {
      it->label.store(label, std::memory_order_release);
      label += stride;
    }
    gver_.fetch_add(1, std::memory_order_acq_rel);
    dst->release();
    src->release();
  }

  /// Lock-free: true iff a comes strictly before b in the total order.
  bool less(const Item* a, const Item* b) const {
    for (int spins = 0;; ++spins) {
      if (spins >= kSpinYieldThreshold) spr::thread_yield();
      const std::uint64_t g0 = gver_.load(std::memory_order_acquire);
      if (g0 & 1) continue;  // split in flight
      Segment* sa = a->seg.load(std::memory_order_acquire);
      Segment* sb = b->seg.load(std::memory_order_acquire);
      if (sa == sb) {
        const std::uint64_t l0 = sa->lver.load(std::memory_order_acquire);
        if (l0 & 1) continue;  // relabel in flight
        const std::uint64_t la = a->label.load(std::memory_order_acquire);
        const std::uint64_t lb = b->label.load(std::memory_order_acquire);
        // The acquire label loads keep the validating re-checks below from
        // executing early; a torn read forces a new gver_/lver epoch to be
        // visible here, so mismatched epochs always retry.
        if (sa->lver.load(std::memory_order_relaxed) != l0 ||
            gver_.load(std::memory_order_relaxed) != g0) {
          retries_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        return la < lb;
      }
      const bool r = global_.precedes(sa->gitem, sb->gitem);
      if (gver_.load(std::memory_order_relaxed) != g0) {
        retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      return r;
    }
  }

  /// Global-tier insertions so far: one per split_tail.
  std::uint64_t global_inserts() const { return global_.size() - 1; }
  std::uint64_t query_retries() const {
    return retries_.load(std::memory_order_relaxed) + global_.query_retries();
  }
  std::size_t segment_count() const { return segments_.size(); }

 private:
  static constexpr std::uint64_t kMax = ~0ULL;
  // Spin budget before ceding the core to a (possibly preempted) writer;
  // 1 under the model checker so spin loops become scheduling points
  // immediately instead of bloating the explored tree.
#if defined(SPR_MODEL_CHECK)
  static constexpr int kSpinYieldThreshold = 1;
#else
  static constexpr int kSpinYieldThreshold = 64;
#endif

  static Item* alloc_item() { return new Item; }

  Segment* new_segment(GlobalItem* gitem) {
    auto seg = std::make_unique<Segment>();
    seg->gitem = gitem;
    Segment* raw = seg.get();
    {
      spr::lock_guard<spr::mutex> guard(segments_mu_);
      segments_.push_back(std::move(seg));
    }
    return raw;
  }

  void link_after_locked(Segment* s, Item* x, Item* item) {
    item->prev = x;
    item->next = x->next;
    if (x->next != nullptr)
      x->next->prev = item;
    else
      s->tail = item;
    x->next = item;
    ++s->count;
  }

  /// Rewrites every label in `s` with uniform spacing, under the
  /// segment's seqlock so concurrent readers retry instead of tearing.
  void relabel_locked(Segment* s) {
    s->lver.fetch_add(1, std::memory_order_acq_rel);
    const std::uint64_t stride = kMax / (s->count + 2);
    std::uint64_t label = stride;
    for (Item* it = s->head; it != nullptr; it = it->next) {
      it->label.store(label, std::memory_order_release);
      label += stride;
    }
    s->lver.fetch_add(1, std::memory_order_acq_rel);
  }

  GlobalOm global_;
  spr::atomic<std::uint64_t> gver_{0};
  mutable spr::atomic<std::uint64_t> retries_{0};
  spr::mutex split_mu_;
  spr::mutex segments_mu_;
  std::vector<std::unique_ptr<Segment>> segments_;
  Item* root_ = nullptr;
};

/// Default instantiation: mutex-serial global tier (the oracle backend).
using SegmentList = BasicSegmentList<>;

}  // namespace spr::hybrid
