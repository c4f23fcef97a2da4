// ConcurrentOrderList, SP-hybrid's global tier: it must order items
// exactly like a sequential mirror under randomized insert positions,
// survive a multi-threaded disjoint-pivot stress with concurrent readers
// (the TSan leg's meat), and linearize concurrent inserts after the same
// pivot.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "om/concurrent_om.hpp"
#include "util/rng.hpp"

namespace {

using spr::om::ConcurrentOrderList;
using Item = ConcurrentOrderList::Item;

// All ordered pairs of `mirror` (list order) must agree with precedes().
void expect_order_matches(const ConcurrentOrderList& om,
                          const std::vector<Item*>& mirror) {
  for (std::size_t i = 0; i < mirror.size(); ++i)
    for (std::size_t j = 0; j < mirror.size(); ++j)
      ASSERT_EQ(om.precedes(mirror[i], mirror[j]), i < j)
          << "pair (" << i << ", " << j << ")";
}

TEST(ConcurrentOm, RandomizedInsertsMatchSequentialOracle) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    spr::util::Xoshiro256 rng(seed);
    ConcurrentOrderList om;
    std::vector<Item*> mirror;
    mirror.push_back(om.base());
    for (int i = 1; i < 300; ++i) {
      const std::size_t pos = rng.next_below(mirror.size());
      mirror.insert(mirror.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
                    om.insert_after(mirror[pos]));
    }
    ASSERT_EQ(om.size(), mirror.size());
    expect_order_matches(om, mirror);
  }
}

TEST(ConcurrentOm, AdversarialSameChainInserts) {
  // Every insert after the same pivot: maximal relabel pressure.
  ConcurrentOrderList om;
  auto* pivot = om.insert_after(om.base());
  std::vector<Item*> items;
  for (int i = 0; i < 3000; ++i) items.push_back(om.insert_after(pivot));
  // Order: base, pivot, items[2999], ..., items[0].
  spr::util::Xoshiro256 rng(9);
  for (int s = 0; s < 5000; ++s) {
    const std::size_t i = rng.next_below(items.size());
    const std::size_t j = rng.next_below(items.size());
    ASSERT_TRUE(om.precedes(om.base(), items[i]));
    ASSERT_TRUE(om.precedes(pivot, items[i]));
    if (i != j) {
      ASSERT_EQ(om.precedes(items[i], items[j]), i > j);
    }
  }
}

// Disjoint-pivot concurrent stress: T writer threads each chain-insert
// after their own pivot while a reader thread hammers precedes() over
// the pivots. Expected final order (pivots seeded serially):
//   base < p0 < (t0's inserts, newest first) < p1 < ... — each writer's
// items stay strictly inside (p_t, p_{t+1}), so a full postcondition
// sweep catches any cross-thread label corruption.
void concurrent_stress(unsigned threads, int per_thread) {
  ConcurrentOrderList om;
  std::vector<Item*> pivots;
  auto* cur = om.base();
  for (unsigned t = 0; t < threads; ++t)
    pivots.push_back(cur = om.insert_after(cur));
  std::vector<std::vector<Item*>> mine(threads);
  std::atomic<bool> stop{false};
  std::atomic<bool> first_pass_done{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread reader([&] {
    std::uint64_t n = 0;
    do {
      for (std::size_t i = 0; i + 1 < pivots.size(); ++i) {
        if (!om.precedes(pivots[i], pivots[i + 1])) std::abort();
        if (!om.precedes(om.base(), pivots[i])) std::abort();
      }
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
      auto* at = pivots[t];
      for (int i = 0; i < per_thread; ++i)
        mine[t].push_back(at = om.insert_after(at));
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(reads.load(), 0u);
  ASSERT_EQ(om.size(), 1 + threads * (1 + static_cast<std::size_t>(
                                              per_thread)));
  // Postcondition sweep: chains ordered, and confined to their window.
  for (unsigned t = 0; t < threads; ++t) {
    const auto& chain = mine[t];
    for (std::size_t i = 0; i + 1 < chain.size(); ++i)
      ASSERT_TRUE(om.precedes(chain[i], chain[i + 1])) << "t" << t;
    for (const auto* it : chain) {
      ASSERT_TRUE(om.precedes(pivots[t], it)) << "t" << t;
      if (t + 1 < threads) {
        ASSERT_TRUE(om.precedes(it, pivots[t + 1])) << "t" << t;
      }
    }
  }
}

TEST(ConcurrentOm, ConcurrentDisjointInsertsWithReaders) {
  for (const unsigned threads : {1u, 2u, 4u}) concurrent_stress(threads, 2000);
}

TEST(ConcurrentOm, SamePivotConcurrentInsertsLinearize) {
  // Every thread inserts after the SAME pivot. Each insert lands
  // immediately after the pivot, so in any linearization every item ends
  // strictly inside (pivot, succ), the items are totally ordered, and
  // each thread's own items appear newest first.
  for (const unsigned threads : {2u, 4u}) {
    for (int round = 0; round < 50; ++round) {
      ConcurrentOrderList om;
      auto* pivot = om.base();
      for (int i = 0; i <= 40; ++i) pivot = om.insert_after(pivot);
      auto* succ = om.insert_after(pivot);
      std::vector<std::vector<Item*>> mine(threads);
      std::atomic<unsigned> ready{0};  // start together so inserts overlap
      std::vector<std::thread> ws;
      for (unsigned t = 0; t < threads; ++t)
        ws.emplace_back([&, t] {
          ready.fetch_add(1, std::memory_order_acq_rel);
          while (ready.load(std::memory_order_acquire) < threads)
            std::this_thread::yield();
          for (int i = 0; i < 50; ++i)
            mine[t].push_back(om.insert_after(pivot));
        });
      for (auto& w : ws) w.join();
      ASSERT_EQ(om.size(), 43 + threads * 50u);
      std::vector<Item*> all;
      for (const auto& chain : mine) {
        for (std::size_t i = 0; i + 1 < chain.size(); ++i)
          ASSERT_TRUE(om.precedes(chain[i + 1], chain[i]));
        all.insert(all.end(), chain.begin(), chain.end());
      }
      for (const auto* a : all) {
        ASSERT_TRUE(om.precedes(pivot, a));
        ASSERT_TRUE(om.precedes(a, succ));
        for (const auto* b : all) {
          if (a != b) {
            ASSERT_NE(om.precedes(a, b), om.precedes(b, a));
          }
        }
      }
    }
  }
}

}  // namespace
