// Unit tests for the order-maintenance lists: insert_after order
// correctness against a mirror sequence, the relabel-storm
// adversary (10^5 inserts at one point), pointer stability across
// relabels, and the amortization counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "om/labeled_list.hpp"
#include "om/order_list.hpp"
#include "util/rng.hpp"

namespace {

using spr::om::LabeledList;
using spr::om::OrderList;

// Checks that `list` orders `mirror` exactly as the vector does, over all
// ordered pairs.
template <typename List>
void expect_order_matches(const List& list,
                          const std::vector<typename List::Item*>& mirror) {
  for (std::size_t i = 0; i < mirror.size(); ++i) {
    for (std::size_t j = 0; j < mirror.size(); ++j) {
      ASSERT_EQ(list.precedes(mirror[i], mirror[j]), i < j)
          << "pair (" << i << ", " << j << ")";
    }
  }
}

template <typename List>
void append_chain_test() {
  List list;
  std::vector<typename List::Item*> items;
  items.push_back(list.root());
  for (int i = 1; i < 2000; ++i)
    items.push_back(list.insert_after(items.back()));
  ASSERT_EQ(list.size(), items.size());
  // All adjacent pairs plus a strided sample of distant pairs.
  for (std::size_t i = 0; i + 1 < items.size(); ++i)
    ASSERT_TRUE(list.precedes(items[i], items[i + 1]));
  for (std::size_t i = 0; i < items.size(); i += 97)
    for (std::size_t j = 0; j < items.size(); j += 89)
      ASSERT_EQ(list.precedes(items[i], items[j]), i < j);
}

TEST(OrderList, AppendChain) { append_chain_test<OrderList>(); }
TEST(LabeledList, AppendChain) { append_chain_test<LabeledList>(); }

template <typename List>
void random_insert_mirror_test(std::uint64_t seed) {
  spr::util::Xoshiro256 rng(seed);
  List list;
  std::vector<typename List::Item*> mirror;
  mirror.push_back(list.root());
  for (int i = 1; i < 500; ++i) {
    const std::size_t pos = rng.next_below(mirror.size());
    mirror.insert(mirror.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
                  list.insert_after(mirror[pos]));
  }
  ASSERT_EQ(list.size(), mirror.size());
  expect_order_matches(list, mirror);
}

TEST(OrderList, RandomInsertsMatchMirror) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed)
    random_insert_mirror_test<OrderList>(seed);
}
TEST(LabeledList, RandomInsertsMatchMirror) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed)
    random_insert_mirror_test<LabeledList>(seed);
}

TEST(OrderList, RelabelStormAtOnePoint) {
  constexpr int kN = 100000;
  OrderList list;
  OrderList::Item* pivot = list.root();
  std::vector<OrderList::Item*> items;
  items.reserve(kN);
  for (int i = 0; i < kN; ++i) items.push_back(list.insert_after(pivot));
  // Resulting order: pivot, items[kN-1], ..., items[0].
  spr::util::Xoshiro256 rng(42);
  for (int s = 0; s < 20000; ++s) {
    const std::size_t i = rng.next_below(items.size());
    const std::size_t j = rng.next_below(items.size());
    ASSERT_TRUE(list.precedes(pivot, items[i]));
    if (i != j) {
      ASSERT_EQ(list.precedes(items[i], items[j]), i > j);
    }
  }
  // Amortization evidence: bounded label moves per insert despite the
  // adversarial pattern (the two-level structure's whole point).
  const auto& st = list.stats();
  EXPECT_EQ(st.inserts, static_cast<std::uint64_t>(kN) + 1);
  const double moved_per_insert =
      static_cast<double>(st.items_moved) / static_cast<double>(st.inserts);
  EXPECT_LT(moved_per_insert, 8.0);
  EXPECT_GT(st.bucket_splits, 0u);
}

TEST(OrderList, PointerStabilityAcrossRelabels) {
  OrderList list;
  OrderList::Item* first = list.root();
  OrderList::Item* second = list.insert_after(first);
  // Storm between first and second forces splits and top relabels; the
  // original pointers must remain valid and correctly ordered.
  OrderList::Item* last_inserted = nullptr;
  for (int i = 0; i < 50000; ++i) last_inserted = list.insert_after(first);
  EXPECT_TRUE(list.precedes(first, second));
  EXPECT_TRUE(list.precedes(first, last_inserted));
  EXPECT_TRUE(list.precedes(last_inserted, second));
  EXPECT_EQ(list.size(), 50002u);
}

TEST(LabeledList, StormTriggersFullRelabels) {
  LabeledList list;
  LabeledList::Item* pivot = list.root();
  for (int i = 0; i < 20000; ++i) (void)list.insert_after(pivot);
  EXPECT_GT(list.stats().full_relabels, 0u);
  // One-level lists pay lots of label moves under the adversary — the
  // contrast with OrderList's bounded constant.
  EXPECT_GT(list.stats().items_moved, list.stats().inserts);
}

TEST(OrderList, EraseMatchesMirror) {
  spr::util::Xoshiro256 rng(11);
  OrderList list;
  std::vector<OrderList::Item*> mirror;
  mirror.push_back(list.root());
  for (int i = 1; i < 400; ++i) {
    const std::size_t pos = rng.next_below(mirror.size());
    mirror.insert(mirror.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
                  list.insert_after(mirror[pos]));
  }
  // Delete a random half; the survivors must keep their exact order.
  for (int i = 0; i < 200; ++i) {
    const std::size_t pos = rng.next_below(mirror.size());
    list.erase(mirror[pos]);
    mirror.erase(mirror.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  ASSERT_EQ(list.size(), mirror.size());
  expect_order_matches(list, mirror);
}

TEST(OrderList, ChurnDoesNotGrow) {
  // 100k insert/erase churn against a bounded live set: storage must
  // track the live size, not the insert total (real reclamation, the
  // footnote-2 prerequisite) — and order must stay exact throughout.
  constexpr int kChurn = 100000;
  constexpr std::size_t kLive = 200;  // above kBucketCap, so splits occur
  spr::util::Xoshiro256 rng(23);
  OrderList list;
  std::vector<OrderList::Item*> mirror;
  mirror.push_back(list.root());
  std::size_t peak_bytes = 0;
  for (int i = 0; i < kChurn; ++i) {
    const std::size_t pos = rng.next_below(mirror.size());
    if (mirror.size() >= kLive || (mirror.size() > 1 && rng.next_bool())) {
      list.erase(mirror[pos]);
      mirror.erase(mirror.begin() + static_cast<std::ptrdiff_t>(pos));
    } else {
      mirror.insert(mirror.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
                    list.insert_after(mirror[pos]));
    }
    if (list.memory_bytes() > peak_bytes) peak_bytes = list.memory_bytes();
    if (i % 10000 == 0) expect_order_matches(list, mirror);
  }
  ASSERT_EQ(list.size(), mirror.size());
  expect_order_matches(list, mirror);
  // Bounded live set -> bounded footprint, independent of churn volume
  // (without reclamation this would be ~kChurn/2 items, 100x larger).
  EXPECT_LT(peak_bytes,
            sizeof(OrderList) +
                4 * kLive *
                    (sizeof(OrderList::Item) + sizeof(OrderList::Bucket)));
  const auto& st = list.stats();
  EXPECT_GT(st.erases, static_cast<std::uint64_t>(kChurn) / 4);
  EXPECT_GT(st.bucket_splits, 0u);
  EXPECT_GT(st.buckets_freed, 0u);
}

TEST(OrderList, MemoryAccounting) {
  OrderList list;
  auto* it = list.root();
  for (int i = 0; i < 100; ++i) it = list.insert_after(it);
  EXPECT_GT(list.memory_bytes(), 100 * sizeof(OrderList::Item));
}

}  // namespace
