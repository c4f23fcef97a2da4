#pragma once
// Two-tier total-order list: the SP-hybrid representation of one ordering
// (English or Hebrew) of the threads (Sections 4-6).
//
// The total order is chopped into contiguous SEGMENTS. The global tier is
// an order-maintenance list over the segments themselves: each segment
// carries a 64-bit global label, and the segments are linked in global
// order. The local tier gives every element a 64-bit label inside its
// segment. Both tiers close a label gap the same way: they relabel the
// smallest sparse-enough window around the insertion point
// (om/list_labeling.hpp), never the whole tier, so a P=1 run (one
// segment) and a steal-heavy run (thousands of segments cut at one
// hotspot) both stay at O(lg n) amortized label writes per insert. Like
// the serial OM lists, the order starts from one root item and grows only
// by insert_after. x < y holds iff
//   segment(x) == segment(y) ? label(x) < label(y)
//                            : glabel(segment(x)) < glabel(segment(y)).
// This is correct for ANY contiguous segmentation of the sequence, which
// is what makes the steal protocol simple to reason about: a steal only
// has to cut the victim's segment at the stolen subtree's boundary items
// (split_tail below); every other operation stays segment-local.
//
// Concurrency contract (matches the scheduler's steal discipline):
//  - insert_after(x) is called only by the worker that currently owns the
//    region around x (the SP-order split rule guarantees exclusivity); a
//    per-segment spr::spin_lock serializes the rare case where a thief
//    splits the same segment concurrently.
//  - split_tail is called only on the steal path, serialized by a global
//    mutex; it is the ONLY operation that inserts into the global tier,
//    so global inserts arrive one at a time, at most 3 per steal. A new
//    segment takes the midpoint of its neighbours' global labels, or
//    else a window of segments around it is relabeled. Both happen
//    inside the global seqlock write section the split already opens.
//  - less(a, b) is lock-free: a global seqlock version guards segment
//    reassignment and global labels (splits), and a per-segment version
//    guards local relabels. All protected data is atomic, so the scheme
//    is exact under ThreadSanitizer.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "om/list_labeling.hpp"
#include "util/atomics.hpp"

namespace spr::hybrid {

class SegmentList {
 public:
  // The seqlock's data loads: every label read in less(). less() relies
  // on these being ACQUIRE: reading a label written inside a relabel
  // epoch synchronizes with the relabeler, which forces the validating
  // re-read of the version to observe at least the epoch-opening odd
  // increment and retry. The MC suite demotes them to relaxed
  // (-DSPR_MC_SEED_BUG_SEQLOCK_RELAXED, MC builds only) to prove the
  // checker catches the torn label pair.
#if defined(SPR_MODEL_CHECK) && defined(SPR_MC_SEED_BUG_SEQLOCK_RELAXED)
  static constexpr std::memory_order kLabelRead =
      std::memory_order_relaxed;  // SEEDED BUG — never set outside MC
#else
  static constexpr std::memory_order kLabelRead = std::memory_order_acquire;
#endif

  struct Segment;

  struct Item {
    spr::atomic<std::uint64_t> label{0};
    spr::atomic<Segment*> seg{nullptr};
    Item* prev = nullptr;  ///< guarded by the owning segment's lock
    Item* next = nullptr;  ///< guarded by the owning segment's lock
  };

  struct Segment {
    spr::atomic<std::uint64_t> glabel{0};  ///< global-tier label
    Segment* prev = nullptr;  ///< global-tier links; guarded by split_mu_
    Segment* next = nullptr;
    spr::atomic<std::uint64_t> lver{0};  ///< seqlock for local relabels
    spr::spin_lock lock;
    Item* head = nullptr;
    Item* tail = nullptr;
    std::size_t count = 0;
  };

  SegmentList() {
    Segment* s = new_segment();
    root_ = new Item;  // label 0: nothing is ever inserted before the root
    root_->seg.store(s, std::memory_order_relaxed);
    s->head = s->tail = root_;
    s->count = 1;
  }
  SegmentList(const SegmentList&) = delete;
  SegmentList& operator=(const SegmentList&) = delete;

  ~SegmentList() {
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
    Item* item = new Item;
    for (;;) {
      Segment* s = x->seg.load(std::memory_order_acquire);
      s->lock.lock();
      if (x->seg.load(std::memory_order_relaxed) != s) {
        s->lock.unlock();  // a split moved x while we were locking; retry
        continue;
      }
      const std::uint64_t lo = x->label.load(std::memory_order_relaxed);
      const std::uint64_t hi =
          x->next != nullptr ? x->next->label.load(std::memory_order_relaxed)
                             : kMax;
      item->seg.store(s, std::memory_order_relaxed);
      link_after_locked(s, x, item);
      if (hi - lo >= 2) {
        item->label.store(lo + (hi - lo) / 2, std::memory_order_release);
      } else {
        // Seqlock write section: concurrent readers retry, never tear.
        s->lver.fetch_add(1, std::memory_order_acq_rel);
        om::relabel_window(
            x, item, kMaxLog,
            [](const Item* it) {
              return it->label.load(std::memory_order_relaxed);
            },
            [](Item* it, std::uint64_t l) {
              it->label.store(l, std::memory_order_release);
            });
        s->lver.fetch_add(1, std::memory_order_acq_rel);
      }
      s->lock.unlock();
      return item;
    }
  }

  /// Steal path only: moves the suffix [first .. tail] of first's segment
  /// into a fresh segment placed immediately after it in the global tier.
  /// One global-tier insertion. Serialized by split_mu_.
  void split_tail(Item* first) {
    spr::lock_guard<spr::mutex> guard(split_mu_);
    Segment* src = first->seg.load(std::memory_order_relaxed);
    src->lock.lock();
    // Seqlock write section: queries retry while gver_ is odd.
    gver_.fetch_add(1, std::memory_order_acq_rel);
    Segment* dst = new_segment();
    link_global_locked(src, dst);
    // Hold dst's lock across the whole move: the moment an item's seg
    // pointer is republished below, the owner's insert_after may target
    // dst, and it must block until the suffix is fully linked/relabeled.
    dst->lock.lock();
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
    dst->lock.unlock();
    src->lock.unlock();
  }

  /// Lock-free: true iff a comes strictly before b in the total order.
  bool less(const Item* a, const Item* b) const {
    for (unsigned tries = 0;; spr::spin_pause(tries++)) {
      const std::uint64_t g0 = gver_.load(std::memory_order_acquire);
      if (g0 & 1) continue;  // split in flight
      Segment* sa = a->seg.load(std::memory_order_acquire);
      Segment* sb = b->seg.load(std::memory_order_acquire);
      if (sa == sb) {
        const std::uint64_t l0 = sa->lver.load(std::memory_order_acquire);
        if (l0 & 1) continue;  // relabel in flight
        const std::uint64_t la = a->label.load(kLabelRead);
        const std::uint64_t lb = b->label.load(kLabelRead);
        // The acquire label loads keep the validating re-checks below from
        // executing early; a torn read forces a new gver_/lver epoch to be
        // visible here, so mismatched epochs always retry. No standalone
        // fence — TSan does not model std::atomic_thread_fence.
        if (sa->lver.load(std::memory_order_relaxed) != l0 ||
            gver_.load(std::memory_order_relaxed) != g0) {
          retries_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        return la < lb;
      }
      // Global labels change only inside a gver_ write section.
      const std::uint64_t ga = sa->glabel.load(kLabelRead);
      const std::uint64_t gb = sb->glabel.load(kLabelRead);
      if (gver_.load(std::memory_order_relaxed) != g0) {
        retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      return ga < gb;
    }
  }

  /// The root's segment plus one per split_tail (a global-tier insert).
  std::size_t segment_count() const { return segments_.size(); }
  std::uint64_t query_retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  /// Items in the whole order. Quiescent only: reads every segment's count.
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& s : segments_) n += s->count;
    return n;
  }

 private:
  static constexpr std::uint64_t kMax = ~0ULL;
  static constexpr int kMaxLog = 63;  ///< widest relabel window, either tier

  /// Constructor or split_mu_ only.
  Segment* new_segment() {
    segments_.push_back(std::make_unique<Segment>());
    return segments_.back().get();
  }

  /// Links `dst` right after `src` in the global tier, at the midpoint of
  /// src's label gap, or relabels a window of segments around it when
  /// there is no gap. Caller holds split_mu_ inside a gver_ write section.
  void link_global_locked(Segment* src, Segment* dst) {
    const std::uint64_t lo = src->glabel.load(std::memory_order_relaxed);
    const std::uint64_t hi =
        src->next != nullptr
            ? src->next->glabel.load(std::memory_order_relaxed)
            : kMax;
    dst->prev = src;
    dst->next = src->next;
    if (src->next != nullptr) src->next->prev = dst;
    src->next = dst;
    if (hi - lo >= 2) {
      dst->glabel.store(lo + (hi - lo) / 2, std::memory_order_release);
      return;
    }
    om::relabel_window(
        src, dst, kMaxLog,
        [](const Segment* s) {
          return s->glabel.load(std::memory_order_relaxed);
        },
        [](Segment* s, std::uint64_t l) {
          s->glabel.store(l, std::memory_order_release);
        });
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

  spr::atomic<std::uint64_t> gver_{0};
  mutable spr::atomic<std::uint64_t> retries_{0};
  spr::mutex split_mu_;
  std::vector<std::unique_ptr<Segment>> segments_;  ///< guarded by split_mu_
  Item* root_ = nullptr;
};

}  // namespace spr::hybrid
