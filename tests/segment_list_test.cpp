// SegmentList, one of SP-hybrid's two-tier total orders: local inserts
// plus split_tail cuts must order items exactly like a sequential mirror,
// including across relabels of the global tier; a relabel of either
// tier rewrites only a window around the insertion point; owners inserting
// and cutting their own segments concurrently must keep every region in
// place while a reader queries (the TSan leg's meat); and concurrent cuts
// of one segment must leave the total order untouched.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "sphybrid/segment_list.hpp"
#include "util/rng.hpp"

namespace {

using spr::hybrid::SegmentList;
using Item = SegmentList::Item;

// All ordered pairs of `mirror` (list order) must agree with less().
void expect_order_matches(const SegmentList& sl,
                          const std::vector<Item*>& mirror) {
  for (std::size_t i = 0; i < mirror.size(); ++i)
    for (std::size_t j = 0; j < mirror.size(); ++j)
      ASSERT_EQ(sl.less(mirror[i], mirror[j]), i < j)
          << "pair (" << i << ", " << j << ")";
}

TEST(SegmentList, RandomizedInsertsAndCutsMatchSequentialOracle) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    spr::util::Xoshiro256 rng(seed);
    SegmentList sl;
    std::vector<Item*> mirror{sl.root()};
    std::size_t cuts = 0;
    for (int i = 1; i < 300; ++i) {
      const std::size_t pos = rng.next_below(mirror.size());
      mirror.insert(mirror.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
                    sl.insert_after(mirror[pos]));
      if (rng.next_below(4) == 0) {
        sl.split_tail(mirror[rng.next_below(mirror.size())]);
        ++cuts;
      }
    }
    ASSERT_EQ(sl.segment_count(), 1 + cuts);
    expect_order_matches(sl, mirror);
  }
}

TEST(SegmentList, RepeatedCutsAfterRootSegmentRelabelGlobalTier) {
  // Every cut links a new segment right after the root's, halving the
  // same global gap: past 64 cuts the global tier must relabel.
  constexpr std::size_t kCuts = 250;
  SegmentList sl;
  std::vector<Item*> items;  // root < items.back() < ... < items.front()
  for (std::size_t i = 0; i < kCuts; ++i)
    items.push_back(sl.insert_after(sl.root()));
  for (Item* it : items) sl.split_tail(it);  // one singleton tail each time
  ASSERT_EQ(sl.segment_count(), 1 + kCuts);
  std::vector<Item*> mirror{sl.root()};
  mirror.insert(mirror.end(), items.rbegin(), items.rend());
  expect_order_matches(sl, mirror);
}

TEST(SegmentList, HotspotCutRelabelsWindowNotGlobalTier) {
  // ~4k cuts, each linking a singleton segment right after the root's,
  // keep closing the same global gap. The cut that finds it closed must
  // relabel a window of segments around the hotspot, not every segment.
  constexpr std::size_t kMinCuts = 4000;
  SegmentList sl;
  const SegmentList::Segment* const first =
      sl.root()->seg.load(std::memory_order_relaxed);
  const auto gap_closed = [first] {
    return first->next->glabel.load(std::memory_order_relaxed) -
               first->glabel.load(std::memory_order_relaxed) <
           2;
  };
  std::vector<Item*> items;  // root < items.back() < ... < items.front()
  for (std::size_t i = 0; i < kMinCuts + 64; ++i)
    items.push_back(sl.insert_after(sl.root()));
  std::size_t cuts = 0;
  while (cuts < kMinCuts || !gap_closed()) sl.split_tail(items[cuts++]);
  ASSERT_LT(cuts, items.size());
  const auto snapshot = [first] {
    std::vector<std::uint64_t> labels;
    for (const SegmentList::Segment* s = first; s != nullptr; s = s->next)
      labels.push_back(s->glabel.load(std::memory_order_relaxed));
    return labels;
  };
  const std::vector<std::uint64_t> before = snapshot();
  ASSERT_EQ(before.size(), 1 + cuts);
  sl.split_tail(items[cuts]);  // the gap-closing cut, right after `first`
  std::vector<std::uint64_t> after = snapshot();
  ASSERT_EQ(after.size(), before.size() + 1);
  after.erase(after.begin() + 1);  // the new segment has no old label
  std::size_t changed = 0;
  for (std::size_t i = 0; i < before.size(); ++i)
    if (after[i] != before[i]) ++changed;
  EXPECT_GT(changed, 0u);
  EXPECT_LT(changed, before.size() / 16) << "of " << before.size();
  for (std::size_t i = 0; i + 1 < after.size(); ++i)
    ASSERT_LT(after[i], after[i + 1]) << i;
}

TEST(SegmentList, ChainInsertsRelabelWindowNotSegment) {
  // Every insert goes after the newest item, so the gap at the end of
  // the one segment keeps closing. Each relabel must stay in a window at
  // the crowded end and never reach the root.
  SegmentList sl;
  std::vector<Item*> mirror{sl.root()};
  std::uint64_t root_label = sl.root()->label.load(std::memory_order_relaxed);
  int root_rewrites = 0;
  for (int i = 0; i < 4096; ++i) {
    mirror.push_back(sl.insert_after(mirror.back()));
    const std::uint64_t now = sl.root()->label.load(std::memory_order_relaxed);
    if (now != root_label) ++root_rewrites;
    root_label = now;
  }
  EXPECT_EQ(root_rewrites, 0);
  // One segment: less() compares local labels, so ordered neighbours
  // imply the whole order.
  for (std::size_t i = 0; i + 1 < mirror.size(); ++i) {
    ASSERT_TRUE(sl.less(mirror[i], mirror[i + 1])) << i;
    ASSERT_FALSE(sl.less(mirror[i + 1], mirror[i])) << i;
  }
}

// Disjoint-owner concurrent stress: each of T writer threads owns the
// segment that starts at its pivot, chain-inserts after its newest item
// and now and then cuts the suffix of one of its own items, while a
// reader thread hammers less() over the pivots. Expected final order:
//   root < p0 < (t0's chain, oldest first) < p1 < ...
// Each writer's items stay strictly inside (p_t, p_{t+1}), so a full
// postcondition sweep catches any cross-thread label corruption.
void concurrent_stress(unsigned threads, int per_thread) {
  SegmentList sl;
  std::vector<Item*> pivots;
  Item* cur = sl.root();
  for (unsigned t = 0; t < threads; ++t)
    pivots.push_back(cur = sl.insert_after(cur));
  for (Item* p : pivots) sl.split_tail(p);  // one segment per owner
  std::vector<std::vector<Item*>> mine(threads);
  std::vector<std::size_t> cuts(threads, 0);
  std::atomic<bool> stop{false};
  std::atomic<bool> first_pass_done{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread reader([&] {
    std::uint64_t n = 0;
    do {
      for (std::size_t i = 0; i + 1 < pivots.size(); ++i) {
        if (!sl.less(pivots[i], pivots[i + 1])) std::abort();
        if (sl.less(pivots[i + 1], pivots[i])) std::abort();
      }
      for (const Item* p : pivots)
        if (!sl.less(sl.root(), p)) std::abort();
      ++n;
      first_pass_done.store(true, std::memory_order_release);
    } while (!stop.load(std::memory_order_acquire));
    reads.fetch_add(n, std::memory_order_relaxed);
  });
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < threads; ++t) {
    writers.emplace_back([&, t] {
      // Start writing only once the reader has finished a pass, so reads
      // overlap writes even when the writers are fast.
      while (!first_pass_done.load(std::memory_order_acquire))
        std::this_thread::yield();
      spr::util::Xoshiro256 rng(t + 1);
      Item* at = pivots[t];
      for (int i = 0; i < per_thread; ++i) {
        mine[t].push_back(at = sl.insert_after(at));
        if (rng.next_below(32) == 0) {
          sl.split_tail(mine[t][rng.next_below(mine[t].size())]);
          ++cuts[t];
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(reads.load(), 0u);
  std::size_t total_cuts = threads;
  for (const std::size_t c : cuts) total_cuts += c;
  ASSERT_EQ(sl.segment_count(), 1 + total_cuts);
  // Postcondition sweep: chains ordered, and confined to their window.
  for (unsigned t = 0; t < threads; ++t) {
    const auto& chain = mine[t];
    for (std::size_t i = 0; i + 1 < chain.size(); ++i)
      ASSERT_TRUE(sl.less(chain[i], chain[i + 1])) << "t" << t;
    for (const Item* it : chain) {
      ASSERT_TRUE(sl.less(pivots[t], it)) << "t" << t;
      if (t + 1 < threads) {
        ASSERT_TRUE(sl.less(it, pivots[t + 1])) << "t" << t;
      }
    }
  }
}

TEST(SegmentList, ConcurrentDisjointOwnersWithReader) {
  for (const unsigned threads : {1u, 2u, 4u}) concurrent_stress(threads, 2000);
}

TEST(SegmentList, ConcurrentCutsOfOneSegmentKeepOrder) {
  // Every thread cuts the SAME segment at its own items, all at once. A
  // cut never changes the total order, whatever the serialization.
  for (const unsigned threads : {2u, 4u}) {
    for (int round = 0; round < 50; ++round) {
      SegmentList sl;
      std::vector<Item*> mirror{sl.root()};
      for (int i = 0; i < 40; ++i)
        mirror.push_back(sl.insert_after(mirror.back()));
      std::atomic<unsigned> ready{0};  // start together so cuts overlap
      std::vector<std::thread> ws;
      for (unsigned t = 0; t < threads; ++t)
        ws.emplace_back([&, t] {
          ready.fetch_add(1, std::memory_order_acq_rel);
          while (ready.load(std::memory_order_acquire) < threads)
            std::this_thread::yield();
          for (std::size_t i = 1 + t; i < mirror.size(); i += threads)
            sl.split_tail(mirror[i]);
        });
      for (auto& w : ws) w.join();
      ASSERT_EQ(sl.segment_count(), mirror.size());  // 1 + one cut per item
      expect_order_matches(sl, mirror);
    }
  }
}

}  // namespace
