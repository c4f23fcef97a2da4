// SegmentList, SP-hybrid's global tier over trace segments: inserts after
// and before any segment must order segments exactly like a sequential
// mirror, including across relabels; a relabel at a hotspot rewrites only
// a window around the insertion point; and threads inserting around their
// own segments concurrently must keep every segment in place while a
// reader queries (the TSan leg's meat).

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
using Segment = SegmentList::Segment;

// All ordered pairs of `mirror` (list order) must agree with less().
void expect_order_matches(const SegmentList& sl,
                          const std::vector<Segment*>& mirror) {
  for (std::size_t i = 0; i < mirror.size(); ++i)
    for (std::size_t j = 0; j < mirror.size(); ++j)
      ASSERT_EQ(sl.less(mirror[i], mirror[j]), i < j)
          << "pair (" << i << ", " << j << ")";
}

TEST(SegmentList, RandomizedInsertsMatchSequentialOracle) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    spr::util::Xoshiro256 rng(seed);
    SegmentList sl;
    std::vector<Segment*> mirror{sl.root()};
    for (int i = 1; i < 300; ++i) {
      const std::size_t pos = rng.next_below(mirror.size());
      const auto at = mirror.begin() + static_cast<std::ptrdiff_t>(pos);
      if (rng.next_below(2) == 0)
        mirror.insert(at + 1, sl.insert_after(mirror[pos]));
      else
        mirror.insert(at, sl.insert_before(mirror[pos]));
    }
    ASSERT_EQ(sl.size(), mirror.size());
    expect_order_matches(sl, mirror);
  }
}

TEST(SegmentList, StealPatternRelabelsAndKeepsOrder) {
  // The steal path's shape: every steal of one victim inserts one English
  // segment right after the victim's and a (pre, thief) Hebrew pair right
  // before it, so both lists keep hitting one hotspot and must relabel.
  constexpr int kSteals = 300;
  SegmentList eng, heb;
  std::vector<Segment*> eng_mirror{eng.root()}, heb_mirror{heb.root()};
  for (int i = 0; i < kSteals; ++i) {
    eng_mirror.insert(eng_mirror.begin() + 1, eng.insert_after(eng.root()));
    Segment* const pre = heb.insert_before(heb.root());
    Segment* const thief = heb.insert_before(heb.root());
    heb_mirror.insert(heb_mirror.end() - 1, pre);
    heb_mirror.insert(heb_mirror.end() - 1, thief);
  }
  EXPECT_EQ(eng.size() + heb.size() - 2, 3u * kSteals);
  expect_order_matches(eng, eng_mirror);
  expect_order_matches(heb, heb_mirror);
}

TEST(SegmentList, HotspotInsertRelabelsWindowNotList) {
  // ~4k inserts right after the root keep closing the same gap. The
  // insert that finds it closed must relabel a window of segments around
  // the hotspot, not every segment.
  constexpr std::size_t kMinInserts = 4000;
  SegmentList sl;
  Segment* const root = sl.root();
  const auto gap_closed = [root] {
    return root->next->label.load(std::memory_order_relaxed) -
               root->label.load(std::memory_order_relaxed) <
           2;
  };
  std::size_t inserts = 0;
  while (inserts < kMinInserts || !gap_closed()) {
    sl.insert_after(root);
    ++inserts;
  }
  const auto snapshot = [root] {
    std::vector<std::uint64_t> labels;
    for (const Segment* s = root; s != nullptr; s = s->next)
      labels.push_back(s->label.load(std::memory_order_relaxed));
    return labels;
  };
  const std::vector<std::uint64_t> before = snapshot();
  ASSERT_EQ(before.size(), 1 + inserts);
  sl.insert_after(root);  // the gap-closing insert
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

// Concurrent stress: each of T writer threads owns a pivot segment and
// inserts around it (after its newest segment, or before its pivot) while
// a reader thread hammers less() over the pivots. Expected final order:
//   root < (t0's before-chain) < p0 < (t0's after-chain) < (t1's ...) < p1
// Each writer's segments stay strictly between its neighbours' pivots, so
// a full postcondition sweep catches any cross-thread label corruption.
void concurrent_stress(unsigned threads, int per_thread) {
  SegmentList sl;
  std::vector<Segment*> pivots;
  Segment* cur = sl.root();
  for (unsigned t = 0; t < threads; ++t)
    pivots.push_back(cur = sl.insert_after(cur));
  std::vector<std::vector<Segment*>> after(threads), before(threads);
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
      for (const Segment* p : pivots)
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
      Segment* at = pivots[t];
      for (int i = 0; i < per_thread; ++i) {
        if (rng.next_below(4) == 0)
          before[t].push_back(sl.insert_before(pivots[t]));
        else
          after[t].push_back(at = sl.insert_after(at));
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(reads.load(), 0u);
  ASSERT_EQ(sl.size(), 1 + threads + threads * std::size_t(per_thread));
  // Postcondition sweep: chains ordered, and confined to their window.
  for (unsigned t = 0; t < threads; ++t) {
    for (std::size_t i = 0; i + 1 < after[t].size(); ++i)
      ASSERT_TRUE(sl.less(after[t][i], after[t][i + 1])) << "t" << t;
    for (std::size_t i = 0; i + 1 < before[t].size(); ++i)
      ASSERT_TRUE(sl.less(before[t][i], before[t][i + 1])) << "t" << t;
    for (const Segment* s : after[t]) {
      ASSERT_TRUE(sl.less(pivots[t], s)) << "t" << t;
      if (t + 1 < threads) {
        ASSERT_TRUE(sl.less(s, pivots[t + 1])) << "t" << t;
      }
    }
    for (const Segment* s : before[t]) {
      ASSERT_TRUE(sl.less(s, pivots[t])) << "t" << t;
      ASSERT_TRUE(sl.less(t > 0 ? pivots[t - 1] : sl.root(), s)) << "t" << t;
    }
  }
}

TEST(SegmentList, ConcurrentOwnersWithReader) {
  for (const unsigned threads : {1u, 2u, 4u}) concurrent_stress(threads, 2000);
}

}  // namespace
