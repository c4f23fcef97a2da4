// Streaming race-detection service tests (race/stream/):
//  - verdict parity: the native streaming service (StreamingSpOrder per
//    stream) must report the same race and query counts as the in-process
//    serial detector — an independent path that walks the tree and never
//    builds events — on the whole generator corpus, for both the
//    determinacy and ALL-SETS shadow protocols;
//  - batch-boundary invariance: replaying one trace at any batch size and
//    shard count yields identical verdicts, and the shard-grouped batch
//    apply equals per-access apply on one shard, cell for cell, and the
//    shard index and the in-table home slot use independent hash bits;
//  - malformed-input robustness: truncated, reordered, and duplicate-id
//    batches are rejected with typed errors, rejects are atomic (the
//    stream state is untouched and the same epoch can be repaired and
//    resubmitted), and randomly mutated traces never crash — the
//    ASan/UBSan legs of the CI matrix run this file;
//  - concurrency smoke: many client streams ingesting in parallel produce
//    the same verdicts as serial replays — the TSan leg runs this file.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <thread>
#include <vector>

#include "fjprog/record.hpp"
#include "race/allsets.hpp"
#include "race/detector.hpp"
#include "race/stream/service.hpp"
#include "sp_test_util.hpp"
#include "sphybrid/executor.hpp"
#include "sporder/sp_order.hpp"
#include "util/rng.hpp"

namespace {

namespace stream = spr::race::stream;
using spr::fj::make_batches;
using spr::fj::record_events;
using spr::tree::ParseTree;
using stream::Batch;
using stream::Event;
using stream::EventKind;
using stream::IngestError;
using stream::StreamId;

/// Replays `events` through a fresh native service in `batch_size`-event
/// batches (0 = whole trace) and returns the stream report.
template <typename Shadow = stream::DeterminacyShadow>
stream::StreamReport replay(const std::vector<Event>& events,
                            std::size_t batch_size = 0,
                            std::uint32_t shards = 16) {
  stream::Service<stream::StreamingSpOrder, Shadow> svc({shards});
  const StreamId s = svc.open_stream();
  for (const Batch& b : make_batches(events, s, batch_size))
    EXPECT_EQ(svc.submit(b).error, IngestError::kOk);
  EXPECT_EQ(svc.finish(s).error, IngestError::kOk);
  return svc.report(s);
}

TEST(StreamService, CorpusVerdictsMatchInProcessDetector) {
  for (const auto& prog : spr::testutil::corpus()) {
    const std::vector<Event> events = record_events(prog.tree);

    spr::order::SpOrder a1(prog.tree);
    const auto in_process = spr::race::detect_races(prog.tree, a1);
    const auto streamed = replay(events);
    EXPECT_EQ(streamed.races.race_count, in_process.race_count) << prog.name;
    EXPECT_EQ(streamed.races.queries, in_process.queries) << prog.name;
    EXPECT_EQ(streamed.events, events.size()) << prog.name;
    EXPECT_TRUE(streamed.finished) << prog.name;

    spr::order::SpOrder a2(prog.tree);
    const auto lock_in_process = spr::race::detect_lock_races(prog.tree, a2);
    const auto lock_streamed = replay<stream::AllSetsShadow>(events);
    EXPECT_EQ(lock_streamed.races.race_count, lock_in_process.race_count)
        << prog.name;
    EXPECT_EQ(lock_streamed.races.queries, lock_in_process.queries)
        << prog.name;
  }
}

TEST(StreamService, SerialReferenceModeRecordsTheSameTrace) {
  const ParseTree t =
      spr::fj::lower_to_parse_tree(spr::fj::make_reduce_sum(64, 4));
  std::vector<Event> recorded;
  spr::hybrid::ExecOptions o;
  o.mode = spr::hybrid::Mode::kSerialReference;
  o.detect_races = true;
  o.record_events = &recorded;
  const auto res = spr::hybrid::run_parallel(t, o);
  const std::vector<Event> direct = record_events(t);
  ASSERT_EQ(recorded.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(recorded[i].kind, direct[i].kind) << "event " << i;
    EXPECT_EQ(recorded[i].loc, direct[i].loc) << "event " << i;
  }
  // And the recorded trace replays to the executor's own verdict.
  EXPECT_EQ(replay(recorded).races.race_count, res.race_count);
}

TEST(StreamService, BatchBoundaryAndShardCountInvariance) {
  for (const char* which : {"clean", "racy", "random"}) {
    const ParseTree t = [&]() -> ParseTree {
      if (std::string(which) == "clean")
        return spr::fj::lower_to_parse_tree(
            spr::fj::make_reduce_sum(64, 4, false));
      if (std::string(which) == "racy")
        return spr::fj::lower_to_parse_tree(
            spr::fj::make_stencil(32, 4, true));
      return spr::fj::lower_to_parse_tree(
          spr::fj::make_random_program(5, 150));
    }();
    const std::vector<Event> events = record_events(t);
    const auto ref = replay(events);
    for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                              std::size_t{0}}) {
      for (std::uint32_t shards : {1u, 4u, 16u}) {
        const auto got = replay(events, batch, shards);
        EXPECT_EQ(got.races.race_count, ref.races.race_count)
            << which << " batch=" << batch << " shards=" << shards;
        EXPECT_EQ(got.races.queries, ref.races.queries)
            << which << " batch=" << batch << " shards=" << shards;
        EXPECT_EQ(got.events, ref.events) << which << " batch=" << batch;
      }
    }
  }
}

// apply_batch must be per-access apply in disguise: grouping a batch by
// shard may reorder accesses ACROSS locations but never within one, so
// every cell sees the same access sequence and issues the same queries.
// Random programs with their accesses squeezed onto a few locations
// (heavy reuse, mixed reads/writes and locksets) make each batch
// interleave one location's accesses with other shards'.
constexpr std::uint64_t kReusedLocs[] = {3, 17, 42, 99, 1000, 4096};

template <typename Shadow>
void expect_batched_equals_per_access(std::uint64_t seed) {
  spr::util::Xoshiro256 rng(seed);
  std::vector<Event> events;
  for (const Event& e : record_events(spr::fj::lower_to_parse_tree(
           spr::fj::make_random_program(seed, 80)))) {
    events.push_back(e);
    if (e.kind != EventKind::kThreadBegin) continue;
    for (std::uint64_t k = 1 + rng.next_below(5); k > 0; --k)
      events.push_back(stream::access_event(
          kReusedLocs[rng.next_below(std::size(kReusedLocs))],
          rng.next_below(3) == 0, rng.next_below(4)));
  }

  // Reference: per-access apply on one shard, SP fed as events arrive.
  Shadow one(1);
  spr::order::StreamingSpOrder sp_ref;
  spr::race::RaceReport ref;
  const auto ref_serial = spr::race::counted_serial(
      [&](spr::tree::ThreadId u, spr::tree::ThreadId v) {
        return sp_ref.precedes(u, v);
      },
      ref.queries);
  spr::tree::ThreadId cur = spr::tree::kNoThread;
  for (const Event& e : events) {
    stream::feed_sp(sp_ref, e);
    if (e.kind == EventKind::kThreadBegin) cur = e.thread;
    if (e.kind == EventKind::kAccess)
      one.apply(0, {e.loc, e.write, e.locks}, cur, ref_serial, ref.race_count);
  }

  // Batched: 16 shards, SP fed for a whole batch before its accesses.
  Shadow many(16);
  spr::order::StreamingSpOrder sp;
  spr::race::RaceReport got;
  const auto serial = spr::race::counted_serial(
      [&](spr::tree::ThreadId u, spr::tree::ThreadId v) {
        return sp.precedes(u, v);
      },
      got.queries);
  stream::AccessBatch batch;
  bool interleaved = false;
  cur = spr::tree::kNoThread;
  for (const Batch& b : make_batches(events, 0, 16 + rng.next_below(81))) {
    batch.clear();
    for (const Event& e : b.events) {
      stream::feed_sp(sp, e);
      if (e.kind == EventKind::kThreadBegin) cur = e.thread;
      if (e.kind == EventKind::kAccess)
        batch.push({e.loc, e.write, e.locks}, cur);
    }
    const auto& it = batch.items;
    for (std::size_t i = 2; i < it.size() && !interleaved; ++i)
      interleaved = it[i].access.loc == it[i - 2].access.loc &&
                    many.shard_of(it[i - 1].access.loc) !=
                        many.shard_of(it[i].access.loc);
    many.apply_batch(0, batch, serial, got.race_count);
  }
  EXPECT_TRUE(interleaved) << "seed " << seed << " never reordered a batch";
  EXPECT_GT(ref.race_count, 0u) << "seed " << seed;
  EXPECT_EQ(got.race_count, ref.race_count) << "seed " << seed;
  EXPECT_EQ(got.queries, ref.queries) << "seed " << seed;
}

TEST(StreamService, BatchedApplyMatchesPerAccessApply) {
  std::uint32_t shards_hit = 0;
  const stream::DeterminacyShadow probe(16);
  for (const std::uint64_t loc : kReusedLocs)
    shards_hit |= 1u << probe.shard_of(loc);
  ASSERT_GT(std::popcount(shards_hit), 2) << "locations must span shards";
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    expect_batched_equals_per_access<stream::DeterminacyShadow>(seed);
    expect_batched_equals_per_access<stream::AllSetsShadow>(seed);
  }
}

// Within one shard, home slots must still spread over the whole table:
// the shard index and the slot take disjoint hash bits, for every stream
// id including 0, whose cell hash is the shard hash itself.
TEST(ShadowShards, SlotBitsIndependentOfShard) {
  constexpr std::size_t kCap = 1024;
  for (std::uint32_t shards : {2u, 16u, 64u}) {
    const stream::DeterminacyShadow probe(shards);
    std::vector<std::uint64_t> locs;
    for (std::uint64_t loc = 0; locs.size() < 4096; ++loc)
      if (probe.shard_of(loc) == shards - 1) locs.push_back(loc);
    for (StreamId s : {0u, 1u, 7u}) {
      std::vector<bool> hit(kCap, false);
      for (const std::uint64_t loc : locs)
        hit[stream::detail::home_slot(s, loc, kCap)] = true;
      const auto covered = std::count(hit.begin(), hit.end(), true);
      // 4096 uniform keys cover ~1024 * (1 - e^-4) ~ 1005 slots.
      EXPECT_GE(covered, 900) << shards << " shards, stream " << s;
    }
  }
}

// ---------------------------------------------------------------------
// Malformed input: every reject is typed, indexed, and atomic.

TEST(StreamService, RejectsUnknownAndFinishedStreams) {
  stream::IngestService svc;
  Batch b;
  b.stream = 7;  // never opened
  b.events.push_back(stream::thread_begin_event(0));
  EXPECT_EQ(svc.submit(b).error, IngestError::kUnknownStream);

  const StreamId s = svc.open_stream();
  b.stream = s;
  b.events.push_back(stream::thread_end_event());
  ASSERT_EQ(svc.submit(b).error, IngestError::kOk);
  ASSERT_EQ(svc.finish(s).error, IngestError::kOk);
  EXPECT_EQ(svc.finish(s).error, IngestError::kStreamFinished);
  b.epoch = 1;
  EXPECT_EQ(svc.submit(b).error, IngestError::kStreamFinished);
}

TEST(StreamService, RejectsEpochReplayAndGap) {
  stream::IngestService svc;
  const StreamId s = svc.open_stream();
  Batch b;
  b.stream = s;
  b.events.push_back(stream::fork_event(true));
  ASSERT_EQ(svc.submit(b).error, IngestError::kOk);
  EXPECT_EQ(svc.submit(b).error, IngestError::kEpochReplayed);  // duplicate
  b.epoch = 3;
  EXPECT_EQ(svc.submit(b).error, IngestError::kEpochGap);  // reordered/lost
}

TEST(StreamService, RejectsGrammarViolationsWithEventIndex) {
  struct Case {
    const char* what;
    std::vector<Event> events;
    IngestError expect;
    std::uint32_t index;
  };
  const Event tb0 = stream::thread_begin_event(0);
  const Event te = stream::thread_end_event();
  const Event acc = stream::access_event(3, true);
  const std::vector<Case> cases = {
      {"access before any thread", {acc}, IngestError::kMisplacedAccess, 0},
      {"fork inside a thread",
       {tb0, stream::fork_event(false)},
       IngestError::kMisplacedFork,
       1},
      {"thread begin inside a thread",
       {tb0, stream::thread_begin_event(1)},
       IngestError::kMisplacedThreadBegin,
       1},
      {"duplicate thread id",
       {stream::fork_event(true), tb0, te, stream::switch_event(),
        stream::thread_begin_event(0)},
       IngestError::kThreadIdMismatch,
       4},
      {"gapped thread id",
       {stream::fork_event(true), tb0, te, stream::switch_event(),
        stream::thread_begin_event(2)},
       IngestError::kThreadIdMismatch,
       4},
      {"thread end without begin", {te}, IngestError::kMisplacedThreadEnd, 0},
      {"switch without fork",
       {tb0, te, stream::switch_event()},
       IngestError::kMisplacedSwitch,
       2},
      {"double switch",
       {stream::fork_event(false), tb0, te, stream::switch_event(),
        stream::switch_event()},
       IngestError::kMisplacedSwitch,
       4},
      {"join before switch",
       {stream::fork_event(false), tb0, te, stream::join_event()},
       IngestError::kMisplacedJoin,
       3},
      {"join without fork", {tb0, te, stream::join_event()},
       IngestError::kMisplacedJoin, 2},
      {"second subtree after the trace closed",
       {tb0, te, stream::thread_begin_event(1)},
       IngestError::kMisplacedThreadBegin,
       2},
  };
  for (const Case& c : cases) {
    stream::IngestService svc;
    const StreamId s = svc.open_stream();
    Batch b;
    b.stream = s;
    b.events = c.events;
    const auto r = svc.submit(b);
    EXPECT_EQ(r.error, c.expect) << c.what;
    EXPECT_EQ(r.event_index, c.index) << c.what;
  }
}

TEST(StreamService, FinishRejectsTruncatedTraces) {
  // Open fork, open thread, and half-delivered trace are all kTruncated.
  for (int variant = 0; variant < 3; ++variant) {
    stream::IngestService svc;
    const StreamId s = svc.open_stream();
    Batch b;
    b.stream = s;
    if (variant == 0) {
      b.events = {stream::fork_event(false), stream::thread_begin_event(0),
                  stream::thread_end_event()};  // right branch never arrives
    } else if (variant == 1) {
      b.events = {stream::thread_begin_event(0)};  // thread never ends
    } else {
      b.events = {};  // nothing at all
    }
    ASSERT_EQ(svc.submit(b).error, IngestError::kOk);
    EXPECT_EQ(svc.finish(s).error, IngestError::kTruncated) << variant;
    // A rejected finish leaves the stream open: deliver the rest.
    Batch fix;
    fix.stream = s;
    fix.epoch = 1;
    if (variant == 0)
      fix.events = {stream::switch_event(), stream::thread_begin_event(1),
                    stream::thread_end_event(), stream::join_event()};
    else if (variant == 1)
      fix.events = {stream::thread_end_event()};
    else
      fix.events = {stream::thread_begin_event(0),
                    stream::thread_end_event()};
    ASSERT_EQ(svc.submit(fix).error, IngestError::kOk) << variant;
    EXPECT_EQ(svc.finish(s).error, IngestError::kOk) << variant;
  }
}

TEST(StreamService, RejectIsAtomicAndRepairable) {
  const ParseTree t =
      spr::fj::lower_to_parse_tree(spr::fj::make_stencil(32, 4, true));
  const std::vector<Event> events = record_events(t);
  const auto ref = replay(events);

  stream::IngestService svc;
  const StreamId s = svc.open_stream();
  const auto batches = make_batches(events, s, 64);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    if (i == batches.size() / 2) {
      // A corrupt version of this batch: valid prefix, then a misplaced
      // join. The whole batch must be rejected with no partial apply.
      Batch bad = batches[i];
      const auto mid = static_cast<std::ptrdiff_t>(bad.events.size() / 2);
      bad.events.insert(bad.events.begin() + mid, stream::join_event());
      const auto r = svc.submit(bad);
      ASSERT_NE(r.error, IngestError::kOk);
      // The same epoch, repaired, must be accepted as if the reject never
      // happened.
    }
    ASSERT_EQ(svc.submit(batches[i]).error, IngestError::kOk) << i;
  }
  ASSERT_EQ(svc.finish(s).error, IngestError::kOk);
  const auto rep = svc.report(s);
  EXPECT_EQ(rep.races.race_count, ref.races.race_count);
  EXPECT_EQ(rep.races.queries, ref.races.queries);
}

TEST(StreamService, FuzzedMutationsNeverCrash) {
  // Random single-event mutations (drop / duplicate / swap / retype) of a
  // real trace: every submit must either succeed or fail with a typed
  // error, and nothing may crash or trip the sanitizers. Accepted mutants
  // are legitimate alternative traces; only robustness is asserted.
  const ParseTree t =
      spr::fj::lower_to_parse_tree(spr::fj::make_random_program(3, 60));
  const std::vector<Event> pristine = record_events(t);
  spr::util::Xoshiro256 rng(0xfeedbeef);
  std::uint64_t rejected = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<Event> ev = pristine;
    const int mutations = 1 + static_cast<int>(rng.next_below(3));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t i = rng.next_below(ev.size());
      switch (rng.next_below(4)) {
        case 0:
          ev.erase(ev.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        case 1: {
          const Event dup = ev[i];
          ev.insert(ev.begin() + static_cast<std::ptrdiff_t>(i), dup);
          break;
        }
        case 2:
          if (i + 1 < ev.size()) std::swap(ev[i], ev[i + 1]);
          break;
        default:
          ev[i].kind = static_cast<EventKind>(rng.next_below(6));
          break;
      }
      if (ev.empty()) break;
    }
    stream::IngestService svc;
    const StreamId s = svc.open_stream();
    bool ok = true;
    for (const Batch& b : make_batches(ev, s, 32)) {
      const auto r = svc.submit(b);
      if (!r.ok()) {
        EXPECT_LT(r.event_index, b.events.size() == 0 ? 1 : b.events.size());
        ok = false;
        ++rejected;
        break;
      }
    }
    if (ok && !svc.finish(s).ok()) ++rejected;
  }
  EXPECT_GT(rejected, 0u) << "mutations never produced an invalid trace";
}

// ---------------------------------------------------------------------
// Concurrency smoke (the TSan leg): parallel client streams, one thread
// each, over one shared service — verdicts must equal serial replays.

TEST(StreamService, ConcurrentStreamsMatchSerialReplays) {
  std::vector<ParseTree> trees;
  trees.push_back(
      spr::fj::lower_to_parse_tree(spr::fj::make_dnc_fill(128, 4, true)));
  trees.push_back(
      spr::fj::lower_to_parse_tree(spr::fj::make_reduce_sum(128, 4)));
  trees.push_back(
      spr::fj::lower_to_parse_tree(spr::fj::make_stencil(64, 4, false)));
  trees.push_back(
      spr::fj::lower_to_parse_tree(spr::fj::make_random_program(11, 200)));
  std::vector<std::vector<Event>> traces;
  std::vector<stream::StreamReport> expected;
  for (const ParseTree& t : trees) {
    traces.push_back(record_events(t));
    expected.push_back(replay(traces.back()));
  }
  for (int round = 0; round < 8; ++round) {
    stream::IngestService svc({4});
    std::vector<StreamId> sids;
    for (std::size_t i = 0; i < trees.size(); ++i)
      sids.push_back(svc.open_stream());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < trees.size(); ++i)
      threads.emplace_back([&, i] {
        for (const Batch& b : make_batches(traces[i], sids[i], 37))
          ASSERT_EQ(svc.submit(b).error, IngestError::kOk);
        ASSERT_EQ(svc.finish(sids[i]).error, IngestError::kOk);
      });
    for (auto& th : threads) th.join();
    for (std::size_t i = 0; i < trees.size(); ++i) {
      const auto rep = svc.report(sids[i]);
      EXPECT_EQ(rep.races.race_count, expected[i].races.race_count) << i;
      EXPECT_EQ(rep.races.queries, expected[i].races.queries) << i;
    }
  }
}

}  // namespace
