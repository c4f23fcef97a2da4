// Negative controls for the spr::mc checker: each binary compiles the
// REAL headers with one deliberately seeded memory-ordering bug (scoped
// to MC builds via SPR_MC_SEED_BUG_* in the header) and asserts that
// systematic exploration (a) finds a violating schedule and (b) the
// recorded decision path REPLAYS to the same violation — the
// "replayable schedule trace" requirement of ISSUE 8.
//
//  - mc_bug_deque_test   (-DSPR_MC_SEED_BUG_DEQUE_PUSH_RELAXED): demotes
//    push_bottom's publishing store of `bottom` from release to relaxed.
//    A thief that observes the pushed bottom value then has no
//    happens-before edge to the slot write and can steal a stale slot
//    value; the conservation oracle (stolen ∪ drained == pushed) trips.
//  - mc_bug_seqlock_test (-DSPR_MC_SEED_BUG_SEQLOCK_RELAXED): demotes
//    OrderList::kLabelRead, every load of OrderList::precedes, from
//    acquire to relaxed. Reading a label a bucket split rewrote no longer
//    synchronizes with the splitting thief, so the global tier's seqlock
//    validation can re-read the stale even version and vouch for a torn
//    (old, new) label pair, flipping an order verdict of
//    tests/mc_seqlock_episode.hpp.
//  - mc_bug_shardlock_test (-DSPR_MC_SEED_BUG_SHARD_LOCK_SPLIT): splits
//    spr::spin_lock's acquire exchange into a load and a separate store.
//    Two threads can both read the lock free before either sets it, so
//    both enter a shadow shard's critical section; the occupancy oracle
//    of tests/mc_shard_lock_episode.hpp trips.
//  - mc_bug_cellcas_test (-DSPR_MC_SEED_BUG_CELL_STORE): replaces the
//    lock-free shadow's cell CAS with a plain store. Two threads that
//    load the same cell both store their own update, so one is lost: the
//    final cell or race count of tests/mc_cell_cas_episode.hpp's
//    same-slot episode matches no serial order.

#include <gtest/gtest.h>

#include <vector>

#include "mc/checker.hpp"
#include "mc_cell_cas_episode.hpp"
#include "mc_seqlock_episode.hpp"
#include "mc_shard_lock_episode.hpp"
#include "sphybrid/deque.hpp"

namespace mc = spr::mc;

#if defined(SPR_MC_SEED_BUG_DEQUE_PUSH_RELAXED)

TEST(McSeededBug, DequeRelaxedPublishIsCaught) {
  using spr::hybrid::ChaseLevDeque;
  using Steal = ChaseLevDeque<int>::StealResult;
  mc::Options o;
  o.preemption_bound = 2;
  o.max_dfs_schedules = 20000;
  o.random_schedules = 20000;
  o.stale_read_budget = 4;
  const mc::Episode episode = [](mc::Run& r) {
    ChaseLevDeque<int> d;
    int sv = -1;
    Steal res = Steal::kEmpty;
    r.spawn([&] {
      d.push_bottom(7);
      d.push_bottom(8);
    });
    r.spawn([&] {
      int v = 0;
      res = d.steal(v);
      if (res == Steal::kStolen) sv = v;
    });
    r.join_all();
    std::vector<int> got;
    if (res == Steal::kStolen) got.push_back(sv);
    int v = 0;
    while (d.pop_bottom(v)) got.push_back(v);
    bool seen7 = false, seen8 = false;
    for (int x : got) {
      SPR_MC_ASSERT(x == 7 || x == 8, "a value that was never pushed");
      (x == 7 ? seen7 : seen8) = true;
    }
    SPR_MC_ASSERT(got.size() == 2 && seen7 && seen8,
                  "both pushed items recovered exactly once");
  };
  const mc::Stats st = mc::explore(o, episode);
  ASSERT_TRUE(st.failed)
      << "the checker must catch the seeded relaxed-publish bug";
  EXPECT_FALSE(st.failure_schedule.empty());
  EXPECT_FALSE(st.failure_trace.empty());
  std::printf("[  mc    ] caught after %llu episodes: %s\n",
              static_cast<unsigned long long>(st.episodes),
              st.failure_message.c_str());
  // The decision path must reproduce the violation deterministically.
  const mc::Stats re =
      mc::replay(o, episode, st.failure_schedule, st.failure_bound);
  ASSERT_TRUE(re.failed) << "recorded schedule did not replay the violation";
  EXPECT_EQ(re.failure_message, st.failure_message);
}

#elif defined(SPR_MC_SEED_BUG_SEQLOCK_RELAXED)

TEST(McSeededBug, SeqlockRelaxedLabelReadIsCaught) {
  mc::Options o;
  o.preemption_bound = 2;
  o.max_dfs_schedules = 40000;
  o.random_schedules = 40000;
  o.stale_read_budget = 4;
  const mc::Episode episode = [](mc::Run& r) {
    spr::mc_episodes::seqlock_split_vs_reader(r);
  };
  const mc::Stats st = mc::explore(o, episode);
  ASSERT_TRUE(st.failed)
      << "the checker must catch the seeded relaxed-label-read bug";
  EXPECT_FALSE(st.failure_schedule.empty());
  EXPECT_FALSE(st.failure_trace.empty());
  std::printf("[  mc    ] caught after %llu episodes: %s\n",
              static_cast<unsigned long long>(st.episodes),
              st.failure_message.c_str());
  const mc::Stats re =
      mc::replay(o, episode, st.failure_schedule, st.failure_bound);
  ASSERT_TRUE(re.failed) << "recorded schedule did not replay the violation";
  EXPECT_EQ(re.failure_message, st.failure_message);
}

#elif defined(SPR_MC_SEED_BUG_SHARD_LOCK_SPLIT)

TEST(McSeededBug, ShardLockSplitExchangeIsCaught) {
  mc::Options o;
  o.preemption_bound = 2;
  o.max_dfs_schedules = 20000;
  o.random_schedules = 20000;
  o.stale_read_budget = 4;
  const mc::Episode episode = [](mc::Run& r) {
    spr::mc_episodes::shard_lock_same_cell(r);
  };
  const mc::Stats st = mc::explore(o, episode);
  ASSERT_TRUE(st.failed)
      << "the checker must catch the seeded split-exchange lock bug";
  EXPECT_FALSE(st.failure_schedule.empty());
  EXPECT_FALSE(st.failure_trace.empty());
  std::printf("[  mc    ] caught after %llu episodes: %s\n",
              static_cast<unsigned long long>(st.episodes),
              st.failure_message.c_str());
  const mc::Stats re =
      mc::replay(o, episode, st.failure_schedule, st.failure_bound);
  ASSERT_TRUE(re.failed) << "recorded schedule did not replay the violation";
  EXPECT_EQ(re.failure_message, st.failure_message);
}

#elif defined(SPR_MC_SEED_BUG_CELL_STORE)

TEST(McSeededBug, CellPlainStoreIsCaught) {
  mc::Options o;
  o.preemption_bound = 2;
  o.max_dfs_schedules = 20000;
  o.random_schedules = 20000;
  o.stale_read_budget = 4;
  const mc::Episode episode = [](mc::Run& r) {
    spr::mc_episodes::cell_cas_same_slot(r);
  };
  const mc::Stats st = mc::explore(o, episode);
  ASSERT_TRUE(st.failed)
      << "the checker must catch the seeded plain cell store";
  EXPECT_FALSE(st.failure_schedule.empty());
  EXPECT_FALSE(st.failure_trace.empty());
  std::printf("[  mc    ] caught after %llu episodes: %s\n",
              static_cast<unsigned long long>(st.episodes),
              st.failure_message.c_str());
  const mc::Stats re =
      mc::replay(o, episode, st.failure_schedule, st.failure_bound);
  ASSERT_TRUE(re.failed) << "recorded schedule did not replay the violation";
  EXPECT_EQ(re.failure_message, st.failure_message);
}

#else
#error "mc_bug_test.cpp must be compiled with exactly one SPR_MC_SEED_BUG_*"
#endif
