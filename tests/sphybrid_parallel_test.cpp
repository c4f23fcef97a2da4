// Parallel-executor stress tests: randomized fork-join programs run on
// the real work-stealing engine at 1, 2, and 4 workers (and 3 for race
// detection, whose workers clear uneven stripes of the shadow). The
// naive locked SP-order keeps every node's slot, so after its run every
// ordered thread pair is checked against the brute-force LCA oracle.
// SP-hybrid answers only on the fly, so its runs ask at least as many
// queries as there are ordered pairs (4 * n per thread), and the run
// checksum (order-independent digest of all per-leaf query answers plus
// the leaf work) must equal the serial reference executor's. The paper's counter claim is asserted
// against MEASURED counts: om_inserts == 3 * splits (3 global-tier
// inserts per steal, counted from the global tier's lists, not the deques).
// The race-detection protocol must stay deterministic: an injected
// write-write race is reported at every worker count, a clean program
// never reports one, racy stencils count exactly the serial reference's
// races, and no estimate-sized run sends an access to the shadow's
// overflow.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "race/stream/shadow_shards.hpp"
#include "sp_test_util.hpp"
#include "sphybrid/executor.hpp"
#include "sphybrid/worker.hpp"

namespace {

using spr::hybrid::ExecOptions;
using spr::hybrid::ExecResult;
using spr::hybrid::Mode;
using spr::hybrid::WorkStealingEngine;

constexpr unsigned kWorkerCounts[] = {1, 2, 4};
/// Detection runs add P = 3: every worker clears one stripe of the
/// shadow's power-of-two table, and 3 does not divide it evenly.
constexpr unsigned kDetectWorkerCounts[] = {1, 2, 3, 4};

ExecOptions base_options(std::uint64_t seed) {
  ExecOptions o;
  o.seed = seed;
  o.queries_per_leaf = 2;
  return o;
}

TEST(SpHybridParallel, PairwiseMatchesLcaOracleAfterParallelRun) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto t = spr::fj::lower_to_parse_tree(
        spr::fj::make_random_program(seed, 120, 500));
    const spr::testutil::Oracle oracle(t);
    for (const unsigned workers : kWorkerCounts) {
      ExecOptions o = base_options(seed);
      o.mode = Mode::kNaive;
      o.workers = workers;
      WorkStealingEngine engine(t, o);
      engine.run();
      const spr::tree::ThreadId n = t.leaf_count();
      for (spr::tree::ThreadId u = 0; u < n; ++u) {
        for (spr::tree::ThreadId v = 0; v < n; ++v) {
          ASSERT_EQ(engine.precedes(u, v), oracle.precedes(u, v))
              << "seed=" << seed << " workers=" << workers << " precedes("
              << u << ", " << v << ")";
        }
      }
    }
  }
}

/// Runs `t` under kHybrid with 4 * n queries per thread (at least one per
/// ordered pair on average) and checks the answers' digest against the
/// serial reference, plus the counted steal identities.
void expect_hybrid_on_the_fly_matches_serial(const spr::tree::ParseTree& t,
                                             std::uint64_t seed,
                                             unsigned workers,
                                             const std::string& name) {
  ExecOptions o = base_options(seed);
  o.queries_per_leaf = 4 * t.leaf_count();
  o.mode = Mode::kSerialReference;
  const ExecResult serial = spr::hybrid::run_parallel(t, o);
  o.mode = Mode::kHybrid;
  o.workers = workers;
  const ExecResult r = spr::hybrid::run_parallel(t, o);
  EXPECT_EQ(r.checksum, serial.checksum) << name << " workers=" << workers;
  EXPECT_EQ(r.queries, serial.queries) << name;
  EXPECT_GE(r.queries, std::uint64_t{t.leaf_count() - 1} * t.leaf_count())
      << name;
  EXPECT_EQ(r.om_inserts, 3 * r.splits) << name;
}

TEST(SpHybridParallel, HybridOnTheFlyMatchesSerialOnPairwiseSeeds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto t = spr::fj::lower_to_parse_tree(
        spr::fj::make_random_program(seed, 120, 500));
    for (const unsigned workers : kWorkerCounts)
      expect_hybrid_on_the_fly_matches_serial(
          t, seed, workers, "seed=" + std::to_string(seed));
  }
}

TEST(SpHybridParallel, ChecksumMatchesSerialOracleAtEveryWorkerCount) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto t = spr::fj::lower_to_parse_tree(
        spr::fj::make_random_program(seed, 150, 800));
    ExecOptions o = base_options(seed);
    o.mode = Mode::kSerialReference;
    const ExecResult serial = spr::hybrid::run_parallel(t, o);
    for (const Mode mode : {Mode::kHybrid, Mode::kNaive}) {
      for (const unsigned workers : kWorkerCounts) {
        o.mode = mode;
        o.workers = workers;
        const ExecResult r = spr::hybrid::run_parallel(t, o);
        EXPECT_EQ(r.checksum, serial.checksum)
            << "seed=" << seed << " mode=" << static_cast<int>(mode)
            << " workers=" << workers;
        EXPECT_EQ(r.queries, serial.queries);
      }
    }
  }
}

TEST(SpHybridParallel, CorpusOnTheFlyAtFourWorkers) {
  for (const auto& prog : spr::testutil::corpus())
    expect_hybrid_on_the_fly_matches_serial(prog.tree, 99, 4, prog.name);
}

TEST(SpHybridParallel, SegmentTierMatchesSerialUnderSteals) {
  // Programs big enough that thieves split traces often, so many answers
  // come from the item pairs rather than the set-root word alone.
  std::uint64_t steals = 0, segment_answers = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto t = spr::fj::lower_to_parse_tree(
        spr::fj::make_random_program(seed, 3000, 4000));
    ExecOptions o = base_options(seed);
    o.queries_per_leaf = 8;
    o.mode = Mode::kSerialReference;
    const ExecResult serial = spr::hybrid::run_parallel(t, o);
    for (const unsigned workers : {2u, 4u}) {
      o.mode = Mode::kHybrid;
      o.workers = workers;
      const ExecResult r = spr::hybrid::run_parallel(t, o);
      EXPECT_EQ(r.checksum, serial.checksum)
          << "seed=" << seed << " workers=" << workers;
      EXPECT_EQ(r.om_inserts, 3 * r.splits);
      steals += r.steals;
      segment_answers += r.queries - r.fast_queries;
    }
  }
  RecordProperty("steals", static_cast<int>(steals));
  RecordProperty("segment_answers", static_cast<int>(segment_answers));
}

TEST(SpHybridParallel, RaceVerdictIsDeterministicAcrossWorkerCounts) {
  for (const bool inject : {false, true}) {
    const auto t = spr::fj::lower_to_parse_tree(
        spr::fj::make_dnc_fill(1u << 9, 8, inject));
    for (const Mode mode : {Mode::kHybrid, Mode::kNaive}) {
      for (const unsigned workers : kDetectWorkerCounts) {
        ExecOptions o = base_options(3);
        o.mode = mode;
        o.workers = workers;
        o.queries_per_leaf = 0;
        o.detect_races = true;
        const ExecResult r = spr::hybrid::run_parallel(t, o);
        EXPECT_EQ(r.has_race(), inject)
            << "mode=" << static_cast<int>(mode) << " workers=" << workers;
        EXPECT_EQ(r.shadow_overflows, 0u) << "the estimate sized the table";
      }
    }
  }
}

// Detection on the lock-free shadow counts exactly the serial
// reference's races on a program whose locations are read by several
// threads and written by two parallel ones, in both the chain shape the
// lowering gives a parallel loop and the balanced one a cilk_for gives.
TEST(SpHybridParallel, RaceCountMatchesSerialReferenceOnStencils) {
  for (const bool balanced : {false, true}) {
    spr::fj::FjProg prog = spr::fj::make_stencil(1u << 12, 8, true);
    if (balanced) prog = spr::fj::balance_parallel(std::move(prog));
    const auto t = spr::fj::lower_to_parse_tree(prog);
    ExecOptions o = base_options(11);
    o.detect_races = true;
    o.mode = Mode::kSerialReference;
    const ExecResult serial = spr::hybrid::run_parallel(t, o);
    ASSERT_GT(serial.race_count, 0u);
    for (const Mode mode : {Mode::kHybrid, Mode::kNaive}) {
      for (const unsigned workers : kDetectWorkerCounts) {
        o.mode = mode;
        o.workers = workers;
        const ExecResult r = spr::hybrid::run_parallel(t, o);
        const std::string where = std::string(balanced ? "balanced" : "chain") +
                                  " mode=" +
                                  std::to_string(static_cast<int>(mode)) +
                                  " workers=" + std::to_string(workers);
        EXPECT_EQ(r.race_count, serial.race_count) << where;
        EXPECT_EQ(r.checksum, serial.checksum) << where;
        EXPECT_EQ(r.shadow_overflows, 0u) << where;
      }
    }
  }
}

// The estimate sizes the shadow to at most 3/4 load, and linear probing
// at that load pushes some keys far from their home slots. A program
// whose footprint lands just under the limit must still keep every key
// in the lock-free table: no access may reach the locked overflow.
TEST(SpHybridParallel, NoOverflowAtTheShadowSizingLimit) {
  const auto t = spr::fj::lower_to_parse_tree(
      spr::fj::make_dnc_fill(196000, 16, /*inject_race=*/true));
  const std::size_t slots =
      spr::race::stream::LockFreeDeterminacyShadow(t.footprint()).capacity();
  const double load = 196001.0 / static_cast<double>(slots);
  ASSERT_GE(load, 0.74) << "the program no longer loads the table near 3/4";
  ASSERT_LE(load, 0.76);
  for (const Mode mode : {Mode::kHybrid, Mode::kNaive}) {
    for (const unsigned workers : kDetectWorkerCounts) {
      ExecOptions o = base_options(13);
      o.detect_races = true;
      o.mode = mode;
      o.workers = workers;
      const ExecResult r = spr::hybrid::run_parallel(t, o);
      EXPECT_EQ(r.race_count, 1u)
          << "mode=" << static_cast<int>(mode) << " workers=" << workers;
      EXPECT_EQ(r.shadow_overflows, 0u)
          << "mode=" << static_cast<int>(mode) << " workers=" << workers;
    }
  }
}

TEST(SpHybridParallel, NaivePaysLockedInsertsPerNodeAtAnyWorkerCount) {
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_fib(14, 16));
  const std::uint64_t internal = t.node_count() - t.leaf_count();
  for (const unsigned workers : kWorkerCounts) {
    ExecOptions o = base_options(5);
    o.mode = Mode::kNaive;
    o.workers = workers;
    const ExecResult r = spr::hybrid::run_parallel(t, o);
    // Theta(T1) locked insertions regardless of schedule (Section 3): one
    // per order per internal node, versus the hybrid's 3 per steal.
    EXPECT_EQ(r.om_inserts, 2 * internal);
  }
}

}  // namespace
