#pragma once
// One-level labeled list: the naive order-maintenance baseline the
// two-level OrderList is benchmarked against. Every item carries a single
// 64-bit label; the list starts from one root item and grows only by
// insert_after, like OrderList. Inserts take the midpoint of the
// neighboring labels, and a gap collision relabels the entire list
// evenly: this baseline deliberately skips OrderList's density-window
// rule. Queries are one integer compare; adversarial insertion patterns
// degrade inserts toward O(n) items moved each, the contrast
// bench/thm5_sporder_scaling.cpp reports.

#include <cstddef>
#include <cstdint>

namespace spr::om {

class LabeledList {
 public:
  struct Stats {
    std::uint64_t inserts = 0;
    std::uint64_t items_moved = 0;
    std::uint64_t full_relabels = 0;
  };

  struct Item {
    std::uint64_t label = 0;
    Item* next = nullptr;
  };

  /// Creates the list with its one root item; every other item is
  /// inserted after it, directly or transitively.
  LabeledList() : head_(new_item(kMax / 2)) { finish_insert(); }
  LabeledList(const LabeledList&) = delete;
  LabeledList& operator=(const LabeledList&) = delete;

  ~LabeledList() {
    Item* it = head_;
    while (it != nullptr) {
      Item* nx = it->next;
      delete it;
      it = nx;
    }
  }

  /// The first item, created with the list.
  Item* root() const { return head_; }

  Item* insert_after(Item* x) {
    const std::uint64_t hi = x->next != nullptr ? x->next->label : kMax;
    if (hi - x->label < 2) relabel_all(size_ + 1);
    const std::uint64_t hi2 = x->next != nullptr ? x->next->label : kMax;
    Item* item = new_item(x->label + (hi2 - x->label) / 2);
    item->next = x->next;
    x->next = item;
    finish_insert();
    return item;
  }

  bool precedes(const Item* a, const Item* b) const {
    return a->label < b->label;
  }

  std::size_t size() const { return size_; }
  const Stats& stats() const { return stats_; }

  std::size_t memory_bytes() const {
    return sizeof(*this) + size_ * sizeof(Item);
  }

 private:
  static constexpr std::uint64_t kMax = ~0ULL;

  Item* new_item(std::uint64_t label) {
    Item* it = new Item;
    it->label = label;
    return it;
  }

  void finish_insert() {
    ++size_;
    ++stats_.inserts;
  }

  void relabel_all(std::size_t upcoming) {
    const std::uint64_t stride = kMax / (upcoming + 1);
    std::uint64_t label = stride;
    for (Item* it = head_; it != nullptr; it = it->next) {
      it->label = label;
      label += stride;
      ++stats_.items_moved;
    }
    ++stats_.full_relabels;
  }

  Item* head_ = nullptr;  ///< the root; nothing is inserted before it
  std::size_t size_ = 0;
  Stats stats_;
};

#if defined(__x86_64__)
static_assert(sizeof(LabeledList::Item) == 16,
              "one label and one link: the list is walked forward only");
#endif

}  // namespace spr::om
