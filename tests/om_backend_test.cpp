// Backend-conformance suite for the om::Backend concept: every backend
// (mutex-serial oracle, two-level, fork-path) must order items exactly
// like a sequential mirror under randomized insert positions, survive a
// multi-threaded disjoint-pivot stress with concurrent readers (the TSan
// leg's meat), and keep label() consistent with precedes() at quiescence.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "om/backend.hpp"
#include "om/concurrent_om.hpp"
#include "om/forkpath_om.hpp"
#include "om/two_level_om.hpp"
#include "util/rng.hpp"

namespace {

using spr::om::ConcurrentOrderList;
using spr::om::ForkPathOm;
using spr::om::TwoLevelOm;

static_assert(spr::om::Backend<ConcurrentOrderList>);
static_assert(spr::om::Backend<TwoLevelOm>);
static_assert(spr::om::Backend<ForkPathOm>);

template <typename B>
class OmBackendTest : public ::testing::Test {};

using Backends = ::testing::Types<ConcurrentOrderList, TwoLevelOm, ForkPathOm>;
TYPED_TEST_SUITE(OmBackendTest, Backends);

// All ordered pairs of `mirror` (list order) must agree with precedes().
template <typename B>
void expect_order_matches(const B& om,
                          const std::vector<typename B::Item*>& mirror) {
  for (std::size_t i = 0; i < mirror.size(); ++i)
    for (std::size_t j = 0; j < mirror.size(); ++j)
      ASSERT_EQ(om.precedes(mirror[i], mirror[j]), i < j)
          << "pair (" << i << ", " << j << ")";
}

TYPED_TEST(OmBackendTest, RandomizedInsertsMatchSequentialOracle) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    spr::util::Xoshiro256 rng(seed);
    TypeParam om;
    std::vector<typename TypeParam::Item*> mirror;
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

TYPED_TEST(OmBackendTest, AdversarialSameChainInserts) {
  // Every insert after the same pivot: maximal relabel pressure for the
  // label-based backends, maximal path depth for fork-path.
  TypeParam om;
  auto* pivot = om.insert_after(om.base());
  std::vector<typename TypeParam::Item*> items;
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

TYPED_TEST(OmBackendTest, LabelsAgreeWithPrecedesAtQuiescence) {
  spr::util::Xoshiro256 rng(3);
  TypeParam om;
  std::vector<typename TypeParam::Item*> mirror;
  mirror.push_back(om.base());
  for (int i = 1; i < 100; ++i) {
    const std::size_t pos = rng.next_below(mirror.size());
    mirror.insert(mirror.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
                  om.insert_after(mirror[pos]));
  }
  for (std::size_t i = 0; i + 1 < mirror.size(); ++i) {
    ASSERT_LT(om.label(mirror[i]), om.label(mirror[i + 1])) << i;
    ASSERT_EQ(om.label(mirror[i]), om.label(mirror[i]));
  }
}

// Disjoint-pivot concurrent stress: T writer threads each chain-insert
// after their own pivot while a reader thread hammers precedes() over
// the pivots. Expected final order (pivots seeded serially):
//   base < p0 < (t0's inserts, newest first) < p1 < ... — each writer's
// items stay strictly inside (p_t, p_{t+1}), so a full postcondition
// sweep catches any cross-thread label corruption.
template <typename B>
void concurrent_stress(unsigned threads, int per_thread) {
  B om;
  std::vector<typename B::Item*> pivots;
  auto* cur = om.base();
  for (unsigned t = 0; t < threads; ++t)
    pivots.push_back(cur = om.insert_after(cur));
  std::vector<std::vector<typename B::Item*>> mine(threads);
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

TYPED_TEST(OmBackendTest, ConcurrentDisjointInsertsWithReaders) {
  for (const unsigned threads : {1u, 2u, 4u})
    concurrent_stress<TypeParam>(threads, 2000);
}

TEST(ForkPathOm, SamePivotConcurrentInsertsLinearize) {
  // Two threads insert after the SAME pivot concurrently: the CAS loop
  // must leave both strictly after the pivot, mutually ordered, and
  // strictly before the pivot's old successor.
  for (int round = 0; round < 50; ++round) {
    ForkPathOm om;
    auto* pivot = om.insert_after(om.base());
    auto* succ = om.insert_after(pivot);
    ForkPathOm::Item* a = nullptr;
    ForkPathOm::Item* b = nullptr;
    std::thread t1([&] { a = om.insert_after(pivot); });
    std::thread t2([&] { b = om.insert_after(pivot); });
    t1.join();
    t2.join();
    ASSERT_TRUE(om.precedes(pivot, a));
    ASSERT_TRUE(om.precedes(pivot, b));
    ASSERT_TRUE(om.precedes(a, succ));
    ASSERT_TRUE(om.precedes(b, succ));
    ASSERT_NE(om.precedes(a, b), om.precedes(b, a));
  }
}

TEST(TwoLevelOm, SplitsKeepCountersHonest) {
  TwoLevelOm om;
  auto* at = om.base();
  for (int i = 0; i < 10000; ++i) at = om.insert_after(at);
  EXPECT_GT(om.splits(), 0u);
  EXPECT_GT(om.group_count(), 1u);
  EXPECT_EQ(om.size(), 10001u);
  // Chain appends land in an existing gap or split locally — the
  // single-threaded run must never contend a lock.
  EXPECT_EQ(om.lock_waits(), 0u);
}

TEST(ChainInsertScaling, ForkPathPathsDeepenMutexRelabels) {
  // Document the backends' contrasting adversarial behavior: under a
  // same-pivot storm the mutex backend relabels globally (query cost
  // stays O(1)), while fork-path queries walk ever-longer paths.
  ForkPathOm fp;
  auto* pivot = fp.insert_after(fp.base());
  for (int i = 0; i < 1000; ++i) (void)fp.insert_after(pivot);
  // 1001 forks of the same pivot: path depth ~1001 bits, ~16 chunks.
  EXPECT_TRUE(fp.precedes(fp.base(), pivot));
  EXPECT_GT(fp.memory_bytes(), 1000 * sizeof(ForkPathOm::Chunk));
}

}  // namespace
