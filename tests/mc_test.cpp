// Systematic concurrency checking of the lock-free core (spr::mc).
// Build with -DSPR_MODEL_CHECK=ON: the atomics policy layer
// (util/atomics.hpp) rebinds every spr::atomic and spr::mutex in the
// structures under test to the instrumented mc types (spr::spin_lock and
// spr::spin_pause are built on them, so every lock and seqlock back-off
// is explored too), and each TEST below explores the schedule space of
// one known-delicate scenario — DFS with iterative context bounding
// first, seeded random walks on top — asserting a sequential oracle on
// every explored schedule. The final test checks the suite explored
// >= 10k distinct schedules in total.
//
// Each scenario is an EPISODE: fresh structure, a little setup on the
// main context (plain sequential mode), spawn 2-3 logical threads,
// join, verify. SPR_MC_ASSERT failures abort with a replayable trace.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "mc/checker.hpp"
#include "mc_cell_cas_episode.hpp"
#include "mc_seqlock_episode.hpp"
#include "mc_shard_lock_episode.hpp"
#include "race/stream/service.hpp"
#include "spbags/dsu.hpp"
#include "sphybrid/deque.hpp"
#include "sphybrid/global_tier.hpp"

namespace mc = spr::mc;
using spr::bags::AtomicDisjointSets;
using spr::hybrid::ChaseLevDeque;
using spr::hybrid::GlobalTier;

namespace {

std::uint64_t g_total_distinct = 0;  // summed across tests (gtest runs
                                     // them in declaration order)

void report(const char* name, const mc::Stats& st) {
  g_total_distinct += st.distinct_schedules;
  ::testing::Test::RecordProperty(name, static_cast<int>(st.distinct_schedules));
  std::printf("[  mc    ] %-28s episodes=%llu distinct=%llu dfs_done=%d "
              "bounds=%llu\n",
              name, static_cast<unsigned long long>(st.episodes),
              static_cast<unsigned long long>(st.distinct_schedules),
              st.dfs_exhausted ? 1 : 0,
              static_cast<unsigned long long>(st.bounds_completed));
}

mc::Options base_options() {
  mc::Options o;
  o.preemption_bound = 2;
  o.max_dfs_schedules = 4000;
  o.random_schedules = 20000;
  o.target_distinct = 2500;
  o.stale_read_budget = 4;
  o.seed = 0x5eed;
  return o;
}

using Steal = ChaseLevDeque<int>::StealResult;

}  // namespace

// ---------------------------------------------------------------------
// Scenario 1: owner take vs. thief steal with ONE remaining item — the
// take/steal CAS race on `top`. Oracle: the item goes to exactly one
// side, and it is the right item.

TEST(McSuite, DequeTakeVsStealLastItem) {
  int owner_wins = 0, thief_wins = 0, aborts = 0, empties = 0;
  const mc::Options o = base_options();
  const mc::Stats st = mc::explore(o, [&](mc::Run& r) {
    ChaseLevDeque<int> d;
    d.push_bottom(41);
    int po = 0, sv = 0;
    bool ok = false;
    Steal res = Steal::kEmpty;
    r.spawn([&] { ok = d.pop_bottom(po); });
    r.spawn([&] {
      int v = 0;
      res = d.steal(v);
      if (res == Steal::kStolen) sv = v;
    });
    r.join_all();
    const int takes = (ok ? 1 : 0) + (res == Steal::kStolen ? 1 : 0);
    SPR_MC_ASSERT(takes == 1, "the last item must go to exactly one side");
    if (ok) {
      SPR_MC_ASSERT(po == 41, "owner took a value it never pushed");
      ++owner_wins;
    } else {
      SPR_MC_ASSERT(sv == 41, "thief stole a value that was never pushed");
      ++thief_wins;
    }
    if (res == Steal::kAbort) ++aborts;
    if (res == Steal::kEmpty) ++empties;
  });
  ASSERT_FALSE(st.failed) << st.failure_message << "\n" << st.failure_trace;
  report("deque_take_vs_steal", st);
  // Schedule-space coverage: every outcome class must have been reached,
  // including the kEmpty-vs-kAbort discrimination a stress test cannot
  // pin down deterministically.
  EXPECT_GT(owner_wins, 0);
  EXPECT_GT(thief_wins, 0);
  EXPECT_GT(aborts, 0) << "no schedule made the thief lose the CAS";
  EXPECT_GT(empties, 0) << "no schedule made the thief see an empty deque";
}

// ---------------------------------------------------------------------
// Scenario 2: buffer grow during a steal. The owner's 9th push doubles
// the array while the thief holds the old array pointer; the retire
// list plus the release/acquire pair on `array_`/`bottom` must keep
// every observed slot value exact. Oracle: popped ∪ stolen == pushed,
// no duplicate, no loss, and steals arrive oldest-first (FIFO).

TEST(McSuite, DequeGrowDuringSteal) {
  const mc::Options o = base_options();
  const mc::Stats st = mc::explore(o, [&](mc::Run& r) {
    ChaseLevDeque<int> d;  // capacity rounds up to 8
    for (int i = 0; i < 8; ++i) d.push_bottom(100 + i);  // full
    std::vector<int> popped, stolen;
    r.spawn([&] {
      d.push_bottom(108);  // forces grow(8 -> 16) mid-race
      d.push_bottom(109);
      int v = 0;
      while (d.pop_bottom(v)) popped.push_back(v);
    });
    r.spawn([&] {
      for (int tries = 0; tries < 4; ++tries) {
        int v = 0;
        if (d.steal(v) == Steal::kStolen) stolen.push_back(v);
      }
    });
    r.join_all();
    SPR_MC_ASSERT(popped.size() + stolen.size() == 10,
                  "every pushed item is taken exactly once");
    bool seen[10] = {};
    for (int v : popped) {
      SPR_MC_ASSERT(v >= 100 && v < 110 && !seen[v - 100],
                    "owner popped a wrong or duplicate value");
      seen[v - 100] = true;
    }
    for (std::size_t i = 0; i < stolen.size(); ++i) {
      const int v = stolen[i];
      SPR_MC_ASSERT(v >= 100 && v < 110 && !seen[v - 100],
                    "thief stole a wrong or duplicate value");
      seen[v - 100] = true;
      if (i > 0)
        SPR_MC_ASSERT(stolen[i - 1] < v,
                      "steals must take the OLDEST pending item first");
    }
  });
  ASSERT_FALSE(st.failed) << st.failure_message << "\n" << st.failure_trace;
  report("deque_grow_during_steal", st);
}

// ---------------------------------------------------------------------
// Scenario 3: two thieves steal from one victim's deque at once. The
// victim pushed X1.right, then X2.right for a fork X2 inside X1.left, so
// X1.right's split must come first: its `pre` item lands before X2.right's
// thief item in Hebrew order, and X2.right's `pre` after X1.right's thief
// item. Each thief runs the engine's locked_steal: try-lock the victim,
// CAS the deque top, GlobalTier::split. Oracle: the deeper task is never
// stolen without the shallower one; each thief runs parallel to the
// victim and after its own re-pointed pair; and when both steal, the
// S-sets above X1 precede X2.right's trace while those above X2 (inside
// X1.left) run parallel to X1.right's.

TEST(McSuite, TwoThievesSplitInDequeOrder) {
  int both = 0;
  const mc::Stats st = mc::explore(base_options(), [&](mc::Run& r) {
    ChaseLevDeque<int> d;
    spr::spin_lock victim_lock;
    GlobalTier tier;
    const GlobalTier::Pair victim = tier.root();
    d.push_bottom(1);  // X1.right: the shallower fork, pushed first
    d.push_bottom(2);  // X2.right
    GlobalTier::Split got[3] = {};
    const auto thief = [&] {
      int task = 0;
      spr::hybrid::locked_steal(victim_lock, d, task,
                                [&](int t) { got[t] = tier.split(victim); });
    };
    r.spawn(thief);
    r.spawn(thief);
    r.join_all();
    const bool stole1 = got[1].thief.eng != nullptr;
    const bool stole2 = got[2].thief.eng != nullptr;
    SPR_MC_ASSERT(!stole2 || stole1,
                  "the deeper continuation was stolen first");
    std::uint64_t retries = 0;
    for (const int t : {1, 2}) {
      if (got[t].thief.eng == nullptr) continue;
      SPR_MC_ASSERT(!tier.precedes(got[t].thief, victim, retries) &&
                        !tier.precedes(victim, got[t].thief, retries),
                    "a thief's trace must run parallel to the victim's");
      SPR_MC_ASSERT(tier.precedes(got[t].repointed, got[t].thief, retries),
                    "the re-pointed S-sets must precede the thief's trace");
    }
    if (stole2) {
      ++both;
      SPR_MC_ASSERT(tier.precedes(got[1].repointed, got[2].thief, retries) &&
                        !tier.precedes(got[2].repointed, got[1].thief, retries),
                    "the thieves' splits break deque order");
    }
  });
  ASSERT_FALSE(st.failed) << st.failure_message << "\n" << st.failure_trace;
  report("two_thieves_split_order", st);
  EXPECT_GT(both, 0) << "no schedule let both thieves steal";
}

// ---------------------------------------------------------------------
// Scenario 4: AtomicDisjointSets, the shipped rank-only protocol: two
// read-only acquire finds race an owner-serialized unite that publishes
// the new parent link with a release store. A find that reads the link
// stale still ends at its own set's pre-union root; the oracle is that
// every find lands in the caller's set and the final forest is one set.

TEST(McSuite, DsuConcurrentFindVsUnite) {
  mc::Options o = base_options();
  const mc::Stats st = mc::explore(o, [&](mc::Run& r) {
    AtomicDisjointSets dsu(8);
    // Setup (plain mode): two multi-level trees {0..3} and {4..7}.
    dsu.unite(0, 1);
    dsu.unite(2, 3);
    dsu.unite(0, 2);
    dsu.unite(4, 5);
    dsu.unite(6, 7);
    dsu.unite(4, 6);
    const std::uint32_t left = dsu.find(3), right = dsu.find(7);
    std::uint32_t fa = 0, fb = 0;
    r.spawn([&] { fa = dsu.find(3); });  // walks 3's two-hop path
    r.spawn([&] { fb = dsu.find(7); });
    r.spawn([&] { dsu.unite(0, 4); });   // owner-serialized union
    r.join_all();
    // Each concurrent find returned a node of its own set: it must be
    // the pre-union root or the final merged root.
    const std::uint32_t final_root = dsu.find(0);
    SPR_MC_ASSERT(fa == left || fa == right || fa == final_root,
                  "find(3) escaped its own set");
    SPR_MC_ASSERT(dsu.find(fa) == final_root, "find(3) result not merged");
    SPR_MC_ASSERT(fb == left || fb == right || fb == final_root,
                  "find(7) escaped its own set");
    SPR_MC_ASSERT(dsu.find(fb) == final_root, "find(7) result not merged");
    for (std::uint32_t x = 0; x < 8; ++x)
      SPR_MC_ASSERT(dsu.find(x) == final_root,
                    "all 8 elements must end in one set");
  });
  ASSERT_FALSE(st.failed) << st.failure_message << "\n" << st.failure_trace;
  report("dsu_find_vs_unite", st);
}

// ---------------------------------------------------------------------
// Scenario 5: a steal whose insert splits a full bucket of the reversed
// Hebrew list, inside the global tier's seqlock write section, while a
// lock-free GlobalTier::precedes() reader compares pairs whose items the
// split relabels, with labels that cross between epochs.
// Oracle (tests/mc_seqlock_episode.hpp): the reader's verdicts match the
// maintained order on every schedule — and some schedule must tear a read
// and force a seqlock retry.

TEST(McSuite, GlobalTierSplitVsReader) {
  int retried = 0;
  const mc::Stats st = mc::explore(base_options(), [&](mc::Run& r) {
    if (spr::mc_episodes::seqlock_split_vs_reader(r) > 0) ++retried;
  });
  ASSERT_FALSE(st.failed) << st.failure_message << "\n" << st.failure_trace;
  report("global_tier_split_vs_reader", st);
  EXPECT_GT(retried, 0) << "no schedule made the reader's seqlock retry";
}

// ---------------------------------------------------------------------
// Scenarios 6 and 7: the streaming service (race/stream/). Each stream
// owns its SP engine and shadow, guarded by the stream's spr::mutex; the
// stream table's spr::mutex is the only state streams share.

namespace {

namespace rs = spr::race::stream;

/// A parallel fork whose two threads each write `locs` in order: one race
/// (and one query) per location.
std::vector<rs::Event> two_writer_events(std::vector<std::uint64_t> locs) {
  std::vector<rs::Event> ev = {rs::fork_event(/*series=*/false)};
  for (const spr::tree::ThreadId t : {0u, 1u}) {
    if (t == 1) ev.push_back(rs::switch_event());
    ev.push_back(rs::thread_begin_event(t));
    for (const std::uint64_t loc : locs)
      ev.push_back(rs::access_event(loc, /*write=*/true));
    ev.push_back(rs::thread_end_event());
  }
  ev.push_back(rs::join_event());
  return ev;
}

bool exactly(const spr::race::RaceReport& r, std::uint64_t races) {
  return r.race_count == races && r.queries == races;
}

}  // namespace

// Scenario 6: two streams submit and finish concurrently, one racing on
// location 0 and the other on locations 0 and 1 — the same location in
// both, so a stream that saw the other's cells would miscount. Oracle:
// on every interleaving both batches ingest and each stream reports
// exactly its own races.

TEST(McSuite, StreamsSubmitAndFinishConcurrently) {
  const std::vector<rs::Event> ev1 = two_writer_events({0});
  const std::vector<rs::Event> ev2 = two_writer_events({0, 1});
  mc::Options o = base_options();
  o.max_dfs_schedules = 3000;
  const mc::Stats st = mc::explore(o, [&](mc::Run& r) {
    rs::IngestService svc;
    const rs::StreamId s1 = svc.open_stream();
    const rs::StreamId s2 = svc.open_stream();
    rs::IngestResult r1, r2, f1, f2;
    r.spawn([&] {
      r1 = svc.submit({s1, 0, ev1});
      f1 = svc.finish(s1);
    });
    r.spawn([&] {
      r2 = svc.submit({s2, 0, ev2});
      f2 = svc.finish(s2);
    });
    r.join_all();
    SPR_MC_ASSERT(r1.ok() && f1.ok() && r2.ok() && f2.ok(),
                  "valid batches must ingest on every interleaving");
    SPR_MC_ASSERT(exactly(svc.report(s1).races, 1),
                  "stream 1 must report exactly its own race");
    SPR_MC_ASSERT(exactly(svc.report(s2).races, 2),
                  "stream 2 must report exactly its own two races");
    SPR_MC_ASSERT(svc.report(s1).finished && svc.report(s2).finished,
                  "both streams must finish");
  });
  ASSERT_FALSE(st.failed) << st.failure_message << "\n" << st.failure_trace;
  report("streams_submit_and_finish", st);
}

// Scenario 7: finish() frees a stream's shadow and SP engine while a
// second thread reads the stream through memory_bytes() and report().
// Oracle: the reader sees the stream wholly open or wholly finished —
// memory_bytes() is one of the two sums, and the report carries the
// stream's one race either way — and both states occur.

TEST(McSuite, FinishFreesWhileReaderReads) {
  const std::vector<rs::Event> ev = two_writer_events({0});
  int saw_open = 0, saw_finished = 0;
  mc::Options o = base_options();
  o.max_dfs_schedules = 3000;
  const mc::Stats st = mc::explore(o, [&](mc::Run& r) {
    rs::IngestService svc;
    const rs::StreamId s = svc.open_stream();
    SPR_MC_ASSERT(svc.submit({s, 0, ev}).ok(), "the batch must ingest");
    const std::size_t open_bytes = svc.memory_bytes();
    rs::IngestResult f;
    std::size_t seen_bytes = 0;
    rs::StreamReport seen;
    r.spawn([&] { f = svc.finish(s); });
    r.spawn([&] {
      seen_bytes = svc.memory_bytes();
      seen = svc.report(s);
    });
    r.join_all();
    const std::size_t finished_bytes = svc.memory_bytes();
    SPR_MC_ASSERT(f.ok(), "finish must accept the complete trace");
    SPR_MC_ASSERT(finished_bytes < open_bytes,
                  "finish must free the stream's shadow and SP engine");
    SPR_MC_ASSERT(seen_bytes == open_bytes || seen_bytes == finished_bytes,
                  "memory_bytes must see the stream wholly open or finished");
    SPR_MC_ASSERT(exactly(seen.races, 1) && svc.report(s).finished,
                  "the report must carry the stream's one race");
    (seen.finished ? saw_finished : saw_open)++;
  });
  ASSERT_FALSE(st.failed) << st.failure_message << "\n" << st.failure_trace;
  report("finish_frees_while_reading", st);
  EXPECT_GT(saw_open, 0) << "no schedule read the stream before finish";
  EXPECT_GT(saw_finished, 0) << "no schedule read the stream after finish";
}

// ---------------------------------------------------------------------
// Scenario 8: the per-access shard path SP-hybrid's workers take. Two
// threads call DeterminacyShadow::apply on one cell of a one-shard shadow,
// so they hand the shard's spin lock back and forth; every failed try is a
// scheduling point. Oracle (tests/mc_shard_lock_episode.hpp): never two
// threads inside the critical section, exactly one race, counted by the
// final writer — and both writers must win on some schedule.

TEST(McSuite, ShadowApplySameCellTwoThreads) {
  int last1 = 0, last2 = 0;
  const mc::Stats st = mc::explore(base_options(), [&](mc::Run& r) {
    (spr::mc_episodes::shard_lock_same_cell(r) == 1 ? last1 : last2)++;
  });
  ASSERT_FALSE(st.failed) << st.failure_message << "\n" << st.failure_trace;
  report("shadow_apply_same_cell", st);
  EXPECT_GT(last1, 0) << "no schedule let thread 1 write last";
  EXPECT_GT(last2, 0) << "no schedule let thread 2 write last";
}

// ---------------------------------------------------------------------
// Scenarios 9 and 10: SP-hybrid's lock-free shadow, whose cells are
// updated by CAS with no lock (tests/mc_cell_cas_episode.hpp). In 9, two
// threads claim one empty slot and update its cell at once: the final
// cell and the race count must be those of one serial order, both orders
// must occur, and some schedule must make a cell CAS fail and retry. In
// 10, the last free slot of a 64-slot table, in every key's probe
// window, goes to one of two keys, and the other key goes to the locked
// overflow while the other thread probes it: both threads must route it
// the same way, and each key must still count its one race.

TEST(McSuite, LockFreeShadowSameSlotTwoThreads) {
  int first1 = 0, first2 = 0, retried = 0;
  const mc::Stats st = mc::explore(base_options(), [&](mc::Run& r) {
    const int got = spr::mc_episodes::cell_cas_same_slot(r);
    (got % 2 == 1 ? first1 : first2)++;
    if (got > 2) ++retried;
  });
  ASSERT_FALSE(st.failed) << st.failure_message << "\n" << st.failure_trace;
  report("lockfree_shadow_same_slot", st);
  EXPECT_GT(first1, 0) << "no schedule ordered thread 1's read first";
  EXPECT_GT(first2, 0) << "no schedule ordered thread 2's write first";
  EXPECT_GT(retried, 0) << "no schedule made a cell CAS retry";
}

TEST(McSuite, LockFreeShadowWindowOverflow) {
  std::set<std::uint64_t> overflowed;
  const mc::Stats st = mc::explore(base_options(), [&](mc::Run& r) {
    overflowed.insert(spr::mc_episodes::cell_cas_window_overflow(r));
  });
  ASSERT_FALSE(st.failed) << st.failure_message << "\n" << st.failure_trace;
  report("lockfree_shadow_overflow", st);
  EXPECT_EQ(overflowed.size(), 2u)
      << "the same key overflowed on every schedule";
}

// ---------------------------------------------------------------------
// The acceptance bar: >= 10k distinct schedules across the target
// scenarios, all violation-free (each test above already asserted
// that). Runs last by declaration order.

TEST(McSuite, ZTotalDistinctSchedules) {
  EXPECT_GE(g_total_distinct, 10000u)
      << "the mc suite must explore at least 10k distinct schedules";
  std::printf("[  mc    ] total distinct schedules: %llu\n",
              static_cast<unsigned long long>(g_total_distinct));
}
