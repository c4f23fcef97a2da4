#pragma once
// SP-hybrid's global tier (Sections 5-6): the English and the Hebrew
// total order over traces, kept in two om::OrderLists. Each trace owns a
// Pair, one item in each order, and every S-bag a trace classifies
// carries a pair (sphybrid/README.md has the rule and its proof).
//
// The Hebrew order is stored reversed, so a steal is three insert_after
// calls and the list needs no insert_before: the thief's English item
// right after the victim's, then `pre` and the thief's Hebrew item, each
// right after the victim's item in the reversed list, which reads
// pre < thief < victim in Hebrew order. Hebrew(a) < Hebrew(b) is
// rheb_.precedes(b, a).
//
// Concurrency contract:
//  - split() runs only on the steal path. One mutex serializes the
//    thieves, and a seqlock write section (gver_ odd) brackets the three
//    inserts, bucket splits and top-level relabels included. Items never
//    move and are freed only with the tier; a new item's labels are
//    written before the caller can hand the item to anyone.
//  - precedes() is lock-free: it reads both orders under one validated
//    read and retries while the version is odd or has changed. Every
//    field it reads is atomic and read with OrderList::kLabelRead
//    (acquire), so reading any value a split rewrote synchronizes with
//    that split, and the relaxed re-read of the version then sees the
//    section's odd increment. No standalone fence: TSan does not model
//    std::atomic_thread_fence, so the scheme stays exact under it.

#include <cstdint>

#include "om/order_list.hpp"
#include "util/atomics.hpp"

namespace spr::hybrid {

class GlobalTier {
 public:
  using Item = om::OrderList::Item;

  /// A place in the global tier: an English and a Hebrew item.
  struct Pair {
    Item* eng;
    Item* heb;
  };

  /// What one steal mints: the thief trace's pair, and the pair the
  /// S-sets above the stolen node that carried the victim's pair move to
  /// (the victim's English item with `pre`).
  struct Split {
    Pair thief;
    Pair repointed;
  };

  GlobalTier() = default;
  GlobalTier(const GlobalTier&) = delete;
  GlobalTier& operator=(const GlobalTier&) = delete;

  /// The root trace's pair: first in English, last in Hebrew.
  Pair root() const { return {eng_.root(), rheb_.root()}; }

  /// A steal of a continuation of the trace with pair `victim`: 3 inserts.
  Split split(const Pair& victim) {
    spr::lock_guard<spr::mutex> guard(mu_);
    gver_.fetch_add(1, std::memory_order_acq_rel);  // odd: readers retry
    Item* const thief_eng = eng_.insert_after(victim.eng);
    Item* const pre = rheb_.insert_after(victim.heb);
    Item* const thief_heb = rheb_.insert_after(victim.heb);
    gver_.fetch_add(1, std::memory_order_acq_rel);
    return {{thief_eng, thief_heb}, {victim.eng, pre}};
  }

  /// Theorem 4 over pairs: true iff `a` precedes `b` in both orders.
  /// Lock-free; adds each failed validation to `retries`.
  bool precedes(const Pair& a, const Pair& b, std::uint64_t& retries) const {
    for (unsigned tries = 0;; spr::spin_pause(tries++)) {
      const std::uint64_t g0 = gver_.load(std::memory_order_acquire);
      if (g0 & 1) continue;  // a split is in flight
      const bool ans =
          eng_.precedes(a.eng, b.eng) && rheb_.precedes(b.heb, a.heb);
      if (gver_.load(std::memory_order_relaxed) == g0) return ans;
      ++retries;
    }
  }

  /// Quiescent: the English list and the reversed Hebrew list.
  const om::OrderList& english() const { return eng_; }
  const om::OrderList& reversed_hebrew() const { return rheb_; }

  /// Quiescent: items inserted by splits (every item but the two roots).
  std::uint64_t inserts() const { return eng_.size() + rheb_.size() - 2; }

 private:
  spr::atomic<std::uint64_t> gver_{0};
  spr::mutex mu_;  ///< serializes the thieves' splits
  om::OrderList eng_;
  om::OrderList rheb_;
};

}  // namespace spr::hybrid
