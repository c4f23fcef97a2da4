// Streaming race-detection service tests (race/stream/):
//  - verdict parity: the native streaming service (StreamingSpOrder per
//    stream) must report the same race and query counts as the in-process
//    serial detector — an independent path that walks the tree and never
//    builds events — on the whole generator corpus, for both the
//    determinacy and ALL-SETS shadow protocols — and SP-bags, strictly
//    on the fly, serves as a stream's engine just as SP-order does;
//  - batch-boundary invariance: replaying one trace at any batch size
//    yields identical verdicts;
//  - the cell table: the sharded shadow's shard index and in-table home
//    slot use independent hash bits, keys of several streams and keys
//    sharing a home slot keep distinct cells across growths, both
//    one-owner shadows count cells and bytes exactly, a reserved table
//    does not grow until it holds more cells than it reserved, the
//    footprint estimate tracks exact distinct-location counts, and a
//    sharded shadow's verdict does not depend on its sizing;
//  - SP-hybrid's lock-free shadow: its packed cells round-trip at the
//    largest thread id, the thread-count guard rejects the limit, it
//    matches the one-owner shadow access by access with and without
//    overflow, the reserved location ~0 gets exact verdicts, and 4
//    threads on a 64-slot table count every race exactly;
//  - bounded memory: finish() frees a stream's SP engine and shadow, so
//    open/submit/finish churn grows the service by a fixed-size record
//    per stream;
//  - malformed-input robustness: truncated, reordered, and duplicate-id
//    batches are rejected with typed errors, rejects are atomic (the
//    stream state is untouched and the same epoch can be repaired and
//    resubmitted), and randomly mutated traces never crash under either
//    shadow protocol — the ASan/UBSan legs of the CI matrix run this
//    file;
//  - concurrency smoke: many client streams ingesting in parallel produce
//    the same verdicts as serial replays — the TSan leg runs this file.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <unordered_set>
#include <vector>

#include "fjprog/record.hpp"
#include "race/detector.hpp"
#include "race/stream/service.hpp"
#include "sp_test_util.hpp"
#include "spbags/sp_bags.hpp"
#include "sphybrid/executor.hpp"
#include "sporder/sp_order.hpp"
#include "util/footprint.hpp"
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

TEST(StreamService, RecordedTraceReplaysToSerialReferenceVerdict) {
  const ParseTree t = spr::fj::lower_to_parse_tree(
      spr::fj::make_reduce_sum(64, 4, /*inject_race=*/true));
  spr::hybrid::ExecOptions o;
  o.mode = spr::hybrid::Mode::kSerialReference;
  o.detect_races = true;
  const auto res = spr::hybrid::run_parallel(t, o);
  const auto streamed = replay(record_events(t));
  EXPECT_GT(res.race_count, 0u);
  EXPECT_EQ(streamed.races.race_count, res.race_count);
  EXPECT_EQ(streamed.races.queries, res.queries);
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

// Several streams' keys in one table, as spbench's replay mixes them in
// one DeterminacyShadow: every (stream, loc) keeps its own value through
// many growths, and looking a key up again never adds a cell.
TEST(ShadowShards, CellTableKeepsStreamsApartAcrossGrowths) {
  stream::CellTable<std::uint64_t> table;
  const auto key_id = [](StreamId s, std::uint64_t loc) {
    return (std::uint64_t{s} << 32) | loc;
  };
  constexpr std::uint64_t kLocs = 1000;
  const std::vector<StreamId> streams = {0u, 1u, 7u, 1u << 20};
  // Past 3/4 of 8x the first capacity, so the table doubles >= 3 times.
  static_assert(4 * kLocs >
                6 * stream::kMinCapacity);
  for (std::uint64_t loc = 0; loc < kLocs; ++loc)
    for (const StreamId s : streams) {
      std::uint64_t& v = table.find_or_insert(s, loc);
      EXPECT_EQ(v, 0u) << "fresh cell not value-initialised";
      v = key_id(s, loc);
    }
  EXPECT_EQ(table.size(), streams.size() * kLocs);
  for (std::uint64_t loc = 0; loc < kLocs; ++loc)
    for (const StreamId s : streams)
      ASSERT_EQ(table.find_or_insert(s, loc), key_id(s, loc))
          << "stream " << s << " loc " << loc;
  EXPECT_EQ(table.size(), streams.size() * kLocs);
}

// Keys whose home slots coincide probe past each other, including across
// the wrap from the last slot to the first, and still get distinct cells.
TEST(ShadowShards, CellTableSeparatesKeysSharingAHomeSlot) {
  constexpr std::size_t kCap = stream::kMinCapacity;
  for (const std::size_t home : {std::size_t{5}, kCap - 1}) {
    std::vector<std::pair<StreamId, std::uint64_t>> keys;
    for (std::uint64_t loc = 0; keys.size() < 12; ++loc)
      for (const StreamId s : {0u, 3u})
        if (keys.size() < 12 &&
            stream::detail::home_slot(s, loc, kCap) == home)
          keys.emplace_back(s, loc);
    // 12 keys stay under 3/4 of the first capacity: no growth separates
    // them, so they really share one probe run.
    stream::CellTable<int> table;
    for (std::size_t i = 0; i < keys.size(); ++i)
      table.find_or_insert(keys[i].first, keys[i].second) =
          static_cast<int>(i) + 1;
    EXPECT_EQ(table.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
      EXPECT_EQ(table.find_or_insert(keys[i].first, keys[i].second),
                static_cast<int>(i) + 1)
          << "home " << home << " key " << i;
    EXPECT_EQ(table.size(), keys.size());
  }
}

// Both one-owner shadows count one cell per distinct (stream, loc), and
// their memory covers at least a key and a value per cell.
template <typename Shadow, std::size_t kValueBytes>
void expect_exact_cells_and_bytes() {
  Shadow shadow;
  const auto serial = [](spr::tree::ThreadId, spr::tree::ThreadId) {
    return true;
  };
  std::uint64_t races = 0;
  std::size_t distinct = 0;
  for (const StreamId s : {0u, 5u}) {
    for (std::uint64_t loc = 0; loc < 700; ++loc, ++distinct)
      for (const bool write : {true, false, true})
        shadow.apply(s, spr::tree::Access{loc * 8, write, loc % 3}, 1,
                     serial, races);
  }
  EXPECT_EQ(races, 0u);
  EXPECT_EQ(shadow.cell_count(), distinct);
  EXPECT_GE(shadow.memory_bytes(),
            distinct * (sizeof(StreamId) + sizeof(std::uint64_t) +
                        kValueBytes));
}

TEST(ShadowShards, OwnedShadowsCountCellsAndBytes) {
  expect_exact_cells_and_bytes<stream::OwnedDeterminacyShadow,
                               sizeof(spr::race::ShadowCell)>();
  expect_exact_cells_and_bytes<stream::OwnedAllSetsShadow, sizeof(void*)>();
}

// reserve(n) sizes the table once: n distinct inserts allocate nothing
// after the first, and more inserts than reserved still grow it and keep
// every value.
TEST(ShadowShards, ReservedTableNeverGrows) {
  constexpr std::uint64_t kCells = 5000;
  stream::CellTable<std::uint64_t> table;
  table.reserve(kCells);
  table.find_or_insert(0, 0) = 1;
  const std::size_t reserved = table.memory_bytes();
  for (std::uint64_t loc = 1; loc < kCells; ++loc)
    table.find_or_insert(0, loc) = loc + 1;
  EXPECT_EQ(table.memory_bytes(), reserved);
  EXPECT_EQ(table.size(), kCells);
  for (std::uint64_t loc = kCells; loc < 5 * kCells; ++loc)
    table.find_or_insert(0, loc) = loc + 1;
  EXPECT_GT(table.memory_bytes(), reserved);
  EXPECT_EQ(table.size(), 5 * kCells);
  for (std::uint64_t loc = 0; loc < 5 * kCells; ++loc)
    ASSERT_EQ(table.find_or_insert(0, loc), loc + 1) << "loc " << loc;
}

std::size_t exact_footprint(const ParseTree& t) {
  std::unordered_set<std::uint64_t> locs;
  for (spr::tree::ThreadId v = 0; v < t.leaf_count(); ++v)
    for (const spr::tree::Access& a : t.accesses(v)) locs.insert(a.loc);
  return locs.size();
}

// The estimate that sizes the tree-driven shadows is within 10% of the
// exact distinct-location count, and stays small when there are few.
TEST(ShadowShards, FootprintEstimateTracksDistinctLocations) {
  ParseTree random =
      spr::fj::lower_to_parse_tree(spr::fj::make_random_program(9, 4000));
  spr::util::Xoshiro256 rng(17);
  for (spr::tree::ThreadId v = 0; v < random.leaf_count(); ++v)
    for (int i = 0; i < 8; ++i)
      random.add_access(v, {rng.next_below(20000), rng.next_bool(), 0});
  const std::vector<std::pair<const char*, ParseTree>> trees = [&] {
    std::vector<std::pair<const char*, ParseTree>> v;
    v.emplace_back("dnc_fill", spr::fj::lower_to_parse_tree(
                                   spr::fj::make_dnc_fill(1 << 15, 16, true)));
    v.emplace_back("stencil", spr::fj::lower_to_parse_tree(
                                  spr::fj::make_stencil(1 << 13, 16, true)));
    v.emplace_back("reduce_sum",
                   spr::fj::lower_to_parse_tree(
                       spr::fj::make_reduce_sum(1 << 13, 16, false)));
    v.emplace_back("random", std::move(random));
    return v;
  }();
  for (const auto& [name, t] : trees) {
    const double exact = static_cast<double>(exact_footprint(t));
    const double est = static_cast<double>(t.footprint());
    EXPECT_NEAR(est, exact, 0.1 * exact) << name;
  }

  ParseTree empty = spr::fj::lower_to_parse_tree(spr::fj::make_fib(10));
  EXPECT_EQ(empty.footprint(), 0u);
  for (spr::tree::ThreadId v = 0; v < 10000; ++v)
    empty.add_access(v % empty.leaf_count(), {42, v % 2 == 0, 0});
  EXPECT_LE(empty.footprint(), 2u);
}

// The expected cell count only sizes the shards: too low, too high or
// unknown, a sharded shadow reports the same races.
TEST(ShadowShards, DeterminacyShadowVerdictIgnoresExpectedCells) {
  const ParseTree t = spr::fj::lower_to_parse_tree(
      spr::fj::make_stencil(1 << 12, 8, /*inject_race=*/true));
  spr::order::SpOrder sp(t);
  const auto ref = spr::race::detect_races(t, sp);
  ASSERT_GT(ref.race_count, 0u);
  const std::size_t exact = exact_footprint(t);
  for (const std::size_t expected : {std::size_t{0}, exact / 10, exact * 10}) {
    // English order with an oracle for SP: the same replay as the serial
    // detector, through the sharded shadow.
    stream::DeterminacyShadow shadow(16, expected);
    spr::order::SpOrder order(t);
    struct Replay final : spr::tree::MaintenanceDriver<spr::order::SpOrder> {
      Replay(const ParseTree& tr, spr::order::SpOrder& o,
             stream::DeterminacyShadow& sh)
          : MaintenanceDriver(o), tree(tr), shadow(sh) {}
      void visit_leaf(const spr::tree::Node& n) override {
        MaintenanceDriver::visit_leaf(n);
        const auto serial = spr::race::counted_serial(
            [this](spr::tree::ThreadId u, spr::tree::ThreadId v) {
              return sp_.precedes(u, v);
            },
            report.queries);
        for (const spr::tree::Access& a : tree.accesses(n.thread))
          shadow.apply(0, a, n.thread, serial, report.race_count);
      }
      const ParseTree& tree;
      stream::DeterminacyShadow& shadow;
      spr::race::RaceReport report;
    } replay(t, order, shadow);
    spr::tree::serial_walk(t, replay);
    EXPECT_EQ(replay.report.race_count, ref.race_count) << expected;
    EXPECT_EQ(replay.report.queries, ref.queries) << expected;
    EXPECT_EQ(shadow.cell_count(), exact) << expected;
  }
}

// ---------------------------------------------------------------------
// SP-hybrid's lock-free shadow: packed cells updated by CAS in one table,
// with a locked overflow for full probe windows and the reserved location.

using stream::LockFreeDeterminacyShadow;
using stream::PackedCell;

bool same_cell(const spr::race::ShadowCell& a,
               const spr::race::ShadowCell& b) {
  return a.writer == b.writer && a.reader1 == b.reader1 &&
         a.reader2 == b.reader2;
}

TEST(LockFreeShadow, PackedCellRoundTripsEveryField) {
  using spr::tree::kNoThread;
  constexpr spr::tree::ThreadId kMax = PackedCell::kMaxThread;
  static_assert(kMax == (1u << 21) - 2);
  EXPECT_EQ(PackedCell::pack({}), 0u);
  EXPECT_TRUE(same_cell(PackedCell::unpack(0), {}));
  const std::vector<spr::race::ShadowCell> cells = {
      {0, 1, 2},
      {kMax, kMax - 1, 0},
      {kMax, kNoThread, kMax},
      {kNoThread, kMax, kNoThread},
      {kNoThread, kNoThread, 12345}};
  for (const auto& c : cells)
    EXPECT_TRUE(same_cell(PackedCell::unpack(PackedCell::pack(c)), c))
        << c.writer << " " << c.reader1 << " " << c.reader2;
}

// The engine calls this guard in its constructor whenever it detects
// races (kHybrid and kNaive), so a tree at the limit never runs.
TEST(LockFreeShadow, RejectsThreadCountsAtTheLimit) {
  constexpr std::size_t kLimit = LockFreeDeterminacyShadow::kThreadLimit;
  static_assert(kLimit == (std::size_t{1} << 21) - 1);
  EXPECT_NO_THROW(LockFreeDeterminacyShadow::require_thread_ids(kLimit - 1));
  EXPECT_THROW(LockFreeDeterminacyShadow::require_thread_ids(kLimit),
               stream::ThreadIdLimitError);
  EXPECT_THROW(LockFreeDeterminacyShadow::require_thread_ids(kLimit + 1),
               stream::ThreadIdLimitError);
}

/// A fixed, arbitrary SP relation: the shadow rule does not need a real
/// one to be compared access by access.
bool hashed_serial(spr::tree::ThreadId u, spr::tree::ThreadId v) {
  if (u == spr::tree::kNoThread || u == v) return true;
  return (spr::util::mix64((std::uint64_t{u} << 32) | v) & 3) != 0;
}

// One thread, random reads and writes: the lock-free shadow reports the
// same races as the one-owner shadow after every access, whether its
// table holds every key or sends most of them to the overflow, and
// including the reserved location ~0.
TEST(LockFreeShadow, MatchesOwnedShadowAccessByAccess) {
  constexpr std::uint64_t kLocs = 400;
  for (const std::size_t expected : {kLocs, std::size_t{0}}) {
    LockFreeDeterminacyShadow shadow(expected);
    stream::OwnedDeterminacyShadow owned;
    LockFreeDeterminacyShadow::Counters counts;
    std::uint64_t races = 0, owned_races = 0;
    spr::util::Xoshiro256 rng(expected + 5);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t loc =
          rng.next_below(50) == 0 ? ~0ULL : rng.next_below(kLocs) * 64;
      const spr::tree::ThreadId v =
          rng.next_below(10) == 0
              ? PackedCell::kMaxThread
              : static_cast<spr::tree::ThreadId>(rng.next_below(40));
      const spr::tree::Access a{loc, rng.next_bool(), 0};
      shadow.apply(a, v, hashed_serial, races, counts);
      owned.apply(0, a, v, hashed_serial, owned_races);
      ASSERT_EQ(races, owned_races) << "access " << i << ", " << expected;
    }
    EXPECT_GT(races, 1000u);
    EXPECT_EQ(counts.retries, 0u);
    EXPECT_EQ(shadow.cell_count(), owned.cell_count());
    if (expected == 0)
      EXPECT_GT(counts.overflows, 10000u) << "64 slots hold most keys";
    else
      EXPECT_LT(counts.overflows, 1000u) << "only ~0 should overflow";
  }
}

// loc == ~0 has no key in the table; it lives in the overflow and still
// gets the determinacy rule's verdicts.
TEST(LockFreeShadow, ReservedLocationGetsExactVerdicts) {
  constexpr std::uint64_t kReserved = ~0ULL;
  LockFreeDeterminacyShadow shadow(100);
  LockFreeDeterminacyShadow::Counters counts;
  // 1 || 2, and both precede 3.
  const auto serial = [](spr::tree::ThreadId u, spr::tree::ThreadId v) {
    return u == spr::tree::kNoThread || u == v || v == 3;
  };
  std::uint64_t races = 0;
  shadow.apply({kReserved, true}, 1, serial, races, counts);
  EXPECT_EQ(races, 0u);
  shadow.apply({kReserved, false}, 2, serial, races, counts);
  EXPECT_EQ(races, 1u) << "a read parallel to the writer";
  shadow.apply({kReserved, true}, 3, serial, races, counts);
  EXPECT_EQ(races, 1u) << "a write after both accessors";
  shadow.apply({kReserved - 1, true}, 1, serial, races, counts);
  shadow.apply({kReserved - 1, true}, 2, serial, races, counts);
  EXPECT_EQ(races, 2u) << "the location next to it is an ordinary key";
  EXPECT_EQ(counts.overflows, 3u);
  EXPECT_EQ(shadow.cell_count(), 2u);
}

// A 64-slot table and 10k locations, written by 4 threads that are all
// mutually parallel: most keys overflow, the threads collide on the
// cells that fit, and every location still counts exactly one race per
// write after its first.
TEST(LockFreeShadow, ForcedOverflowCountsEveryRaceUnderContention) {
  constexpr std::uint64_t kLocs = 10000;
  constexpr unsigned kWriters = 4;
  LockFreeDeterminacyShadow shadow(0);
  ASSERT_EQ(shadow.capacity(), stream::kMinCapacity);
  std::vector<std::uint64_t> races(kWriters, 0);
  std::vector<LockFreeDeterminacyShadow::Counters> counts(kWriters);
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kWriters; ++w)
    threads.emplace_back([&, w] {
      const auto parallel = [](spr::tree::ThreadId u, spr::tree::ThreadId v) {
        return u == spr::tree::kNoThread || u == v;
      };
      for (std::uint64_t i = 0; i < kLocs; ++i) {
        // Each writer starts at a different point, so all four are busy
        // in both the table and the overflow at once.
        const std::uint64_t loc = (i + w * kLocs / kWriters) % kLocs;
        shadow.apply({loc, true}, w, parallel, races[w], counts[w]);
      }
    });
  for (auto& t : threads) t.join();
  std::uint64_t total = 0, overflows = 0;
  for (unsigned w = 0; w < kWriters; ++w) {
    total += races[w];
    overflows += counts[w].overflows;
  }
  EXPECT_EQ(total, (kWriters - 1) * kLocs);
  EXPECT_EQ(shadow.cell_count(), kLocs);
  // Every slot is in every key's window, so a key overflows only once the
  // table is full: exactly kLocs - 64 keys, each written kWriters times.
  EXPECT_EQ(overflows, kWriters * (kLocs - shadow.capacity()));
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
  // error, and nothing may crash or trip the sanitizers, under either
  // shadow protocol. Accepted mutants are legitimate alternative traces;
  // only robustness is asserted.
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
    // Each mutant runs through both shadows. Validation does not depend
    // on the shadow, so both services accept or reject it alike.
    const auto accepted = [&ev](auto& svc) {
      const StreamId s = svc.open_stream();
      for (const Batch& b : make_batches(ev, s, 32)) {
        const auto r = svc.submit(b);
        if (!r.ok()) {
          EXPECT_LT(r.event_index,
                    b.events.size() == 0 ? 1 : b.events.size());
          return false;
        }
      }
      return svc.finish(s).ok();
    };
    stream::IngestService svc;
    stream::Service<stream::StreamingSpOrder, stream::OwnedAllSetsShadow>
        lock_svc;
    const bool ok = accepted(svc);
    EXPECT_EQ(accepted(lock_svc), ok) << "round " << round;
    if (!ok) ++rejected;
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
