// Streaming race-detection service tests (race/stream/):
//  - verdict parity: the native streaming service (StreamingSpOrder per
//    stream) must report the same race and query counts as the in-process
//    serial detector — an independent path that walks the tree and never
//    builds events — on the whole generator corpus, for both the
//    determinacy and ALL-SETS shadow protocols — and SP-bags, strictly
//    on the fly, serves as a stream's engine just as SP-order does;
//  - batch-boundary invariance: replaying one trace at any batch size
//    yields identical verdicts, and the sharded shadow's shard index and
//    in-table home slot use independent hash bits;
//  - bounded memory: finish() frees a stream's SP engine and shadow, so
//    open/submit/finish churn grows the service by a fixed-size record
//    per stream;
//  - malformed-input robustness: truncated, reordered, and duplicate-id
//    batches are rejected with typed errors, rejects are atomic (the
//    stream state is untouched and the same epoch can be repaired and
//    resubmitted), and randomly mutated traces never crash — the
//    ASan/UBSan legs of the CI matrix run this file;
//  - concurrency smoke: many client streams ingesting in parallel produce
//    the same verdicts as serial replays — the TSan leg runs this file.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "fjprog/record.hpp"
#include "race/allsets.hpp"
#include "race/detector.hpp"
#include "race/stream/service.hpp"
#include "sp_test_util.hpp"
#include "spbags/sp_bags.hpp"
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
template <typename Shadow = stream::OwnedDeterminacyShadow>
stream::StreamReport replay(const std::vector<Event>& events,
                            std::size_t batch_size = 0) {
  stream::Service<stream::StreamingSpOrder, Shadow> svc;
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
    const auto lock_streamed = replay<stream::OwnedAllSetsShadow>(events);
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

TEST(StreamService, BatchBoundaryInvariance) {
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
      const auto got = replay(events, batch);
      EXPECT_EQ(got.races.race_count, ref.races.race_count)
          << which << " batch=" << batch;
      EXPECT_EQ(got.races.queries, ref.races.queries)
          << which << " batch=" << batch;
      EXPECT_EQ(got.events, ref.events) << which << " batch=" << batch;
    }
  }
}

// Accesses apply while their thread executes, so SP-bags, which answers
// only for the current thread, is as good a stream engine as SP-order.
TEST(StreamService, SpBagsEngineMatchesSpOrderOverCorpus) {
  for (const auto& prog : spr::testutil::corpus()) {
    const std::vector<Event> events = record_events(prog.tree);
    stream::Service<spr::bags::SpBags> bags;
    const StreamId s = bags.open_stream(prog.tree);
    for (const Batch& b : make_batches(events, s, 7))
      ASSERT_EQ(bags.submit(b).error, IngestError::kOk) << prog.name;
    ASSERT_EQ(bags.finish(s).error, IngestError::kOk) << prog.name;
    const auto got = bags.report(s);
    const auto ref = replay(events, 7);
    EXPECT_EQ(got.races.race_count, ref.races.race_count) << prog.name;
    EXPECT_EQ(got.races.queries, ref.races.queries) << prog.name;
  }
}

// finish() frees the stream's SP engine and shadow: the service shrinks,
// and open/submit/finish churn grows it by the fixed-size record each
// finished stream keeps, and no more.
TEST(StreamService, FinishFreesStreamState) {
  const std::vector<Event> events = record_events(
      spr::fj::lower_to_parse_tree(spr::fj::make_dnc_fill(64, 4, true)));
  stream::IngestService svc;
  const auto run = [&svc, &events] {
    const StreamId s = svc.open_stream();
    for (const Batch& b : make_batches(events, s, 64))
      EXPECT_EQ(svc.submit(b).error, IngestError::kOk);
    return s;
  };
  const StreamId first = run();
  const std::size_t open = svc.memory_bytes();
  ASSERT_EQ(svc.finish(first).error, IngestError::kOk);
  const std::size_t finished = svc.memory_bytes();
  EXPECT_LT(finished, open);

  constexpr std::size_t kCycles = 2000;
  for (std::size_t i = 0; i < kCycles; ++i) {
    const StreamId s = run();
    ASSERT_EQ(svc.finish(s).error, IngestError::kOk);
    ASSERT_EQ(svc.report(s).races.race_count,
              svc.report(first).races.race_count);
  }
  EXPECT_LE(svc.memory_bytes() - finished,
            kCycles * stream::IngestService::finished_stream_bytes());
  EXPECT_TRUE(svc.report(first).races.has_race());
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
    stream::IngestService svc;
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
