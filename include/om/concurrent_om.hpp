#pragma once
// Concurrent order-maintenance list: the global tier of SP-hybrid
// (Section 4). Queries are lock-free (seqlock over immutable-between-
// relabels atomic labels); insertions serialize on a mutex, which matches
// the paper's global tier where insertions happen only on steals and are
// already serialized by the scheduler lock. The work-stealing executor
// (sphybrid/worker.hpp) calls insert_after from concurrent steal paths
// via SegmentList::split_tail while other workers query concurrently, so
// every field read outside the mutex is atomic.
//
// This is the ORACLE backend of the om::Backend shootout: correct but
// simple — linearizable, lock-free reads, O(lg n) amortized insert with
// O(n) full relabels, every insert serialized on one mutex. The scalable
// implementation is om/two_level_om.hpp (the paper's two-level
// structure, finely locked per group).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "om/backend.hpp"
#include "util/atomics.hpp"

namespace spr::om {

class ConcurrentOrderList {
 public:
  static constexpr const char* kName = "mutex-serial";

  // The seqlock's data loads. precedes() relies on these being ACQUIRE:
  // reading a label written inside a relabel epoch synchronizes with the
  // relabeler, which forces the validating re-read of `version_` to
  // observe at least the epoch-opening odd increment and retry. The MC
  // suite demotes them to relaxed (-DSPR_MC_SEED_BUG_SEQLOCK_RELAXED,
  // MC builds only) to prove the checker catches the torn label pair.
#if defined(SPR_MODEL_CHECK) && defined(SPR_MC_SEED_BUG_SEQLOCK_RELAXED)
  static constexpr std::memory_order kLabelRead =
      std::memory_order_relaxed;  // SEEDED BUG — never set outside MC
#else
  static constexpr std::memory_order kLabelRead = std::memory_order_acquire;
#endif

  struct Item {
    spr::atomic<std::uint64_t> label{0};
    Item* prev = nullptr;  ///< guarded by the insert mutex
    Item* next = nullptr;  ///< guarded by the insert mutex
  };

  ConcurrentOrderList() {
    base_ = new Item;
    base_->label.store(0, std::memory_order_relaxed);
    head_ = tail_ = base_;
    size_.store(1, std::memory_order_relaxed);
  }
  ConcurrentOrderList(const ConcurrentOrderList&) = delete;
  ConcurrentOrderList& operator=(const ConcurrentOrderList&) = delete;

  ~ConcurrentOrderList() {
    Item* it = head_;
    while (it != nullptr) {
      Item* nx = it->next;
      delete it;
      it = nx;
    }
  }

  /// Sentinel item that precedes every inserted item.
  Item* base() const { return base_; }

  Item* insert_after(Item* x) {
    // Counted acquisition: a failed try_lock is a contended insert — the
    // shootout's lock_waits metric (high here, ~0 for the finer backends).
    if (!mu_.try_lock()) {
      lock_waits_.fetch_add(1, std::memory_order_relaxed);
      mu_.lock();
    }
    spr::lock_guard<spr::mutex> lock(mu_, std::adopt_lock);
    const std::uint64_t lo = x->label.load(std::memory_order_relaxed);
    const std::uint64_t hi =
        x->next != nullptr ? x->next->label.load(std::memory_order_relaxed)
                           : kMax;
    Item* item = new Item;
    if (hi - lo < 2) {
      // Seqlock write section: readers retry while version is odd.
      version_.fetch_add(1, std::memory_order_acq_rel);
      link_after(x, item);
      relabel_all_locked();
      version_.fetch_add(1, std::memory_order_acq_rel);
    } else {
      item->label.store(lo + (hi - lo) / 2, std::memory_order_release);
      link_after(x, item);
    }
    size_.fetch_add(1, std::memory_order_relaxed);
    return item;
  }

  /// Lock-free order query; retries while a relabel is in flight, backing
  /// off through spr::spin_pause so a preempted relabeler can finish its
  /// write section on oversubscribed hosts.
  bool precedes(const Item* a, const Item* b) const {
    for (unsigned tries = 0;; spr::spin_pause(tries++)) {
      const std::uint64_t v0 = version_.load(std::memory_order_acquire);
      if (v0 & 1) continue;  // relabel in progress
      const std::uint64_t la = a->label.load(kLabelRead);
      const std::uint64_t lb = b->label.load(kLabelRead);
      // Seqlock validation: the ACQUIRE label loads keep the version
      // re-check below from being reordered before them (an acquire load
      // is a one-way barrier downward), so a torn (la, lb) pair from two
      // relabel epochs can never validate. No standalone fence — TSan
      // does not model atomic_thread_fence.
      if (version_.load(std::memory_order_relaxed) == v0) return la < lb;
      retries_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  std::uint64_t query_retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  std::uint64_t lock_waits() const {
    return lock_waits_.load(std::memory_order_relaxed);
  }

  std::size_t memory_bytes() const {
    return sizeof(*this) + size() * sizeof(Item);
  }

 private:
  static constexpr std::uint64_t kMax = ~0ULL;

  void link_after(Item* x, Item* item) {
    item->prev = x;
    item->next = x->next;
    if (x->next != nullptr)
      x->next->prev = item;
    else
      tail_ = item;
    x->next = item;
  }

  void relabel_all_locked() {
    const std::uint64_t stride =
        kMax / (size_.load(std::memory_order_relaxed) + 2);
    std::uint64_t label = 0;
    for (Item* it = head_; it != nullptr; it = it->next) {
      it->label.store(label, std::memory_order_release);
      label += stride;
    }
  }

  spr::mutex mu_;
  spr::atomic<std::uint64_t> version_{0};
  spr::atomic<std::uint64_t> lock_waits_{0};
  mutable spr::atomic<std::uint64_t> retries_{0};
  Item* base_ = nullptr;
  Item* head_ = nullptr;
  Item* tail_ = nullptr;
  spr::atomic<std::size_t> size_{0};  ///< read concurrently with inserts
};

static_assert(Backend<ConcurrentOrderList>);

}  // namespace spr::om
