#pragma once
// SP-hybrid's global tier: one total order (English or Hebrew) over trace
// SEGMENTS (Sections 5-6). Each running trace owns one segment in each of
// the two lists, and every S-bag that trace classifies carries a pair of
// them (sphybrid/README.md). The list is an order-maintenance list over
// the segments themselves: each segment carries a 64-bit label, and the
// segments are linked in order.
//
// Like the serial OM lists, the order starts from one root segment. A
// steal adds exactly 3 segments over the two lists: one insert_after in
// the English list and two insert_before in the Hebrew list. A front
// sentinel (never handed out) keeps insert_before a plain insert after the
// predecessor. A new segment takes the midpoint of its neighbours'
// labels; when there is no gap, the smallest sparse-enough window of
// segments around it is relabeled (om/list_labeling.hpp), never the whole
// list, so inserts at one hotspot stay at O(lg n) amortized label writes.
//
// Concurrency contract:
//  - inserts run only on the steal path, serialized by one mutex, so they
//    arrive one at a time. Segments never move and are freed only with
//    the list; an insert publishes the new segment's label before the
//    caller can hand the segment to anyone.
//  - less(a, b) is lock-free. A relabel is the only write to a published
//    label, and it runs inside a seqlock write section (gver_): readers
//    retry while the version is odd or has changed. All protected data is
//    atomic, so the scheme is exact under ThreadSanitizer.

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

  struct Segment {
    spr::atomic<std::uint64_t> label{0};
    Segment* prev = nullptr;  ///< guarded by split_mu_
    Segment* next = nullptr;
  };

  SegmentList() {
    Segment* front = new_segment();  // label 0: the front sentinel
    root_ = new_segment();
    root_->label.store(1ULL << 62, std::memory_order_relaxed);
    front->next = root_;
    root_->prev = front;
  }
  SegmentList(const SegmentList&) = delete;
  SegmentList& operator=(const SegmentList&) = delete;

  /// The segment the whole order starts from (the root trace's).
  Segment* root() const { return root_; }

  /// Inserts a new segment immediately after `x`.
  Segment* insert_after(Segment* x) {
    spr::lock_guard<spr::mutex> guard(split_mu_);
    return link_after_locked(x);
  }

  /// Inserts a new segment immediately before `x` (never the sentinel).
  Segment* insert_before(Segment* x) {
    spr::lock_guard<spr::mutex> guard(split_mu_);
    return link_after_locked(x->prev);
  }

  /// Lock-free: true iff a comes strictly before b in the total order.
  bool less(const Segment* a, const Segment* b) const {
    for (unsigned tries = 0;; spr::spin_pause(tries++)) {
      const std::uint64_t g0 = gver_.load(std::memory_order_acquire);
      if (g0 & 1) continue;  // relabel in flight
      const std::uint64_t la = a->label.load(kLabelRead);
      const std::uint64_t lb = b->label.load(kLabelRead);
      // The acquire label loads keep the validating re-check below from
      // executing early; a torn read forces a new gver_ epoch to be
      // visible here, so mismatched epochs always retry. No standalone
      // fence — TSan does not model std::atomic_thread_fence.
      if (gver_.load(std::memory_order_relaxed) != g0) {
        retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      return la < lb;
    }
  }

  /// Segments in the order: the root plus one per insert. Quiescent, or
  /// from the inserting thread.
  std::size_t size() const { return segments_.size() - 1; }
  std::uint64_t query_retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t kMax = ~0ULL;
  static constexpr int kMaxLog = 63;  ///< widest relabel window

  /// Constructor or split_mu_ only.
  Segment* new_segment() {
    segments_.push_back(std::make_unique<Segment>());
    return segments_.back().get();
  }

  /// Links a new segment right after `x`, at the midpoint of x's label
  /// gap, or relabels a window of segments around it inside a gver_
  /// write section when there is no gap. Caller holds split_mu_.
  Segment* link_after_locked(Segment* x) {
    Segment* s = new_segment();
    const std::uint64_t lo = x->label.load(std::memory_order_relaxed);
    const std::uint64_t hi =
        x->next != nullptr ? x->next->label.load(std::memory_order_relaxed)
                           : kMax;
    s->prev = x;
    s->next = x->next;
    if (x->next != nullptr) x->next->prev = s;
    x->next = s;
    if (hi - lo >= 2) {
      s->label.store(lo + (hi - lo) / 2, std::memory_order_relaxed);
      return s;
    }
    // Seqlock write section: concurrent readers retry, never tear.
    gver_.fetch_add(1, std::memory_order_acq_rel);
    om::relabel_window(
        x, s, kMaxLog,
        [](const Segment* g) {
          return g->label.load(std::memory_order_relaxed);
        },
        [](Segment* g, std::uint64_t l) {
          g->label.store(l, std::memory_order_release);
        });
    gver_.fetch_add(1, std::memory_order_acq_rel);
    return s;
  }

  spr::atomic<std::uint64_t> gver_{0};
  mutable spr::atomic<std::uint64_t> retries_{0};
  spr::mutex split_mu_;
  std::vector<std::unique_ptr<Segment>> segments_;  ///< guarded by split_mu_
  Segment* root_ = nullptr;
};

}  // namespace spr::hybrid
