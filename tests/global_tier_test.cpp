// GlobalTier, SP-hybrid's global tier: steals at any trace must order
// pairs exactly like a sequential mirror of the English and Hebrew
// orders; 2^14 steals at one victim must keep the OM lists' label writes
// per insert bounded by a constant (a one-level list needs O(lg n)); and
// threads splitting their own traces concurrently must keep every pair in
// place while a reader queries (the TSan leg's meat).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sphybrid/global_tier.hpp"
#include "util/rng.hpp"

namespace {

using spr::hybrid::GlobalTier;
using Item = GlobalTier::Item;
using Pair = GlobalTier::Pair;

// The two orders as plain vectors, Hebrew in Hebrew order (not reversed),
// updated by the steal rule: the thief's English item right after the
// victim's, then pre and the thief's Hebrew item right before the
// victim's.
struct Mirror {
  std::vector<Item*> eng, heb;

  explicit Mirror(const GlobalTier& tier)
      : eng{tier.root().eng}, heb{tier.root().heb} {}

  void split(const Pair& victim, const GlobalTier::Split& s) {
    eng.insert(std::find(eng.begin(), eng.end(), victim.eng) + 1,
               s.thief.eng);
    auto at = std::find(heb.begin(), heb.end(), victim.heb);
    at = heb.insert(at, s.thief.heb);
    heb.insert(at, s.repointed.heb);
  }
};

// Every item's position in one mirrored order.
std::unordered_map<const Item*, std::size_t> positions(
    const std::vector<Item*>& order) {
  std::unordered_map<const Item*, std::size_t> pos;
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  return pos;
}

// Both lists' full orders, adjacent items only (label order is
// transitive), then every ordered pair of `pairs` through precedes().
void expect_matches(const GlobalTier& tier, const Mirror& m,
                    const std::vector<Pair>& pairs) {
  ASSERT_EQ(tier.english().size(), m.eng.size());
  ASSERT_EQ(tier.reversed_hebrew().size(), m.heb.size());
  for (std::size_t i = 0; i + 1 < m.eng.size(); ++i)
    ASSERT_TRUE(tier.english().precedes(m.eng[i], m.eng[i + 1])) << i;
  for (std::size_t i = 0; i + 1 < m.heb.size(); ++i)
    ASSERT_TRUE(tier.reversed_hebrew().precedes(m.heb[i + 1], m.heb[i])) << i;
  const auto eng = positions(m.eng);
  const auto heb = positions(m.heb);
  std::uint64_t retries = 0;
  for (const Pair& a : pairs)
    for (const Pair& b : pairs)
      ASSERT_EQ(tier.precedes(a, b, retries),
                eng.at(a.eng) < eng.at(b.eng) && heb.at(a.heb) < heb.at(b.heb));
  EXPECT_EQ(retries, 0u) << "a quiescent tier never fails a validation";
}

TEST(GlobalTier, RandomizedStealsMatchSequentialMirror) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    spr::util::Xoshiro256 rng(seed);
    GlobalTier tier;
    Mirror m(tier);
    std::vector<Pair> traces{tier.root()};
    std::vector<Pair> pairs{tier.root()};
    for (int i = 0; i < 150; ++i) {
      const Pair victim = traces[rng.next_below(traces.size())];
      const GlobalTier::Split s = tier.split(victim);
      m.split(victim, s);
      traces.push_back(s.thief);
      pairs.push_back(s.thief);
      pairs.push_back(s.repointed);
    }
    EXPECT_EQ(tier.inserts(), 3u * 150);
    expect_matches(tier, m, pairs);
  }
}

TEST(GlobalTier, StealPatternKeepsOrder) {
  // The steal path's hotspot: every steal of one victim inserts its
  // thief's English item right after the victim's and its (pre, thief)
  // Hebrew items right before it, so both lists split buckets at one
  // point over and over. Splits 1..k of the root give Q_i = (root
  // English, pre_i) and T_j = (e_j, h_j) with Q_i before T_j iff i <= j.
  constexpr int kSteals = 300;
  GlobalTier tier;
  Mirror m(tier);
  std::vector<GlobalTier::Split> steals;
  std::vector<Pair> pairs{tier.root()};
  for (int i = 0; i < kSteals; ++i) {
    steals.push_back(tier.split(tier.root()));
    m.split(tier.root(), steals.back());
    pairs.push_back(steals.back().thief);
    pairs.push_back(steals.back().repointed);
  }
  EXPECT_EQ(tier.inserts(), 3u * kSteals);
  EXPECT_GT(tier.english().stats().bucket_splits, 0u);
  EXPECT_GT(tier.reversed_hebrew().stats().bucket_splits, 0u);
  expect_matches(tier, m, pairs);
  std::uint64_t retries = 0;
  for (int i = 0; i < kSteals; i += 7)
    for (int j = 0; j < kSteals; j += 5)
      ASSERT_EQ(tier.precedes(steals[i].repointed, steals[j].thief, retries),
                i <= j);
}

TEST(GlobalTier, HotspotStealsMoveConstantLabelsPerInsert) {
  // 2^14 steals at one victim put 3 * 2^14 inserts at two hotspots. A
  // one-level list relabels a window of O(lg n) labels per insert there
  // (a replica of the removed one-level list moved 16-33 per insert); the
  // bucketed top level must keep the label writes per insert constant.
  constexpr int kSteals = 1 << 14;
  GlobalTier tier;
  for (int i = 0; i < kSteals; ++i) tier.split(tier.root());
  ASSERT_EQ(tier.inserts(), 3u * kSteals);
  for (const spr::om::OrderList* l :
       {&tier.english(), &tier.reversed_hebrew()}) {
    const auto& st = l->stats();
    EXPECT_GT(st.top_relabels, 0u);
    EXPECT_LT(static_cast<double>(st.items_moved) /
                  static_cast<double>(st.inserts),
              4.0)
        << st.items_moved << " labels moved over " << st.inserts
        << " inserts";
  }
}

// Concurrent stress: the root is stolen from T times, giving pivots
// T_0..T_{T-1} with repointed pairs Q_0..Q_{T-1}, Q_i before T_j iff
// i <= j and the pivots pairwise parallel. Then writer t keeps stealing
// inside pivot t's subtree of traces (from T_t again, or from its newest
// thief) while a reader checks the pivots' relations. A writer's items
// land inside its pivot's blocks, so the reader's answers never change,
// and the final order equals a sequential replay of each writer's steals.
void concurrent_stress(unsigned threads, int per_thread) {
  GlobalTier tier;
  Mirror m(tier);
  std::vector<GlobalTier::Split> pivots;
  for (unsigned t = 0; t < threads; ++t) {
    pivots.push_back(tier.split(tier.root()));
    m.split(tier.root(), pivots.back());
  }
  struct Step {
    Pair victim;
    GlobalTier::Split s;
  };
  std::vector<std::vector<Step>> steps(threads);
  std::atomic<bool> stop{false};
  std::atomic<bool> first_pass_done{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread reader([&] {
    std::uint64_t n = 0, retries = 0;
    do {
      for (std::size_t i = 0; i < pivots.size(); ++i)
        for (std::size_t j = 0; j < pivots.size(); ++j) {
          if (tier.precedes(pivots[i].repointed, pivots[j].thief, retries) !=
              (i <= j))
            std::abort();
          if (i != j &&
              tier.precedes(pivots[i].thief, pivots[j].thief, retries))
            std::abort();
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
      spr::util::Xoshiro256 rng(t + 1);
      Pair newest = pivots[t].thief;
      for (int i = 0; i < per_thread; ++i) {
        const Pair victim =
            rng.next_below(4) == 0 ? pivots[t].thief : newest;
        steps[t].push_back({victim, tier.split(victim)});
        newest = steps[t].back().s.thief;
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(reads.load(), 0u);
  ASSERT_EQ(tier.inserts(), 3u * (threads + threads * std::size_t(per_thread)));
  // Postcondition sweep: the final lists equal the sequential replay.
  std::vector<Pair> sample;
  for (unsigned t = 0; t < threads; ++t)
    for (std::size_t i = 0; i < steps[t].size(); ++i) {
      m.split(steps[t][i].victim, steps[t][i].s);
      if (i % 50 == 0) {
        sample.push_back(steps[t][i].s.thief);
        sample.push_back(steps[t][i].s.repointed);
      }
    }
  expect_matches(tier, m, sample);
}

TEST(GlobalTier, ConcurrentOwnersWithReader) {
  for (const unsigned threads : {1u, 2u, 4u}) concurrent_stress(threads, 2000);
}

}  // namespace
