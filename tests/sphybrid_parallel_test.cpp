// Parallel-executor stress tests: randomized fork-join programs run on
// the real work-stealing engine at 1, 2, and 4 workers, then every
// ordered thread pair's SP relation (SP-hybrid's and the naive locked
// SP-order's) is checked against the brute-force LCA oracle, and the run
// checksum (order-independent digest of all per-leaf query answers plus
// the leaf work) is compared against the serial reference executor. The
// paper's counter claims are asserted against MEASURED counts:
//   om_inserts == 3 * splits       (two-tier orders: 3 global cuts per split)
//   traces     <= 4 * steals + 1   (Section 5's bound on execution traces)
// The race-detection protocol must stay deterministic: an injected
// write-write race is reported at every worker count, and a clean
// program never reports one.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "sp_test_util.hpp"
#include "sphybrid/executor.hpp"
#include "sphybrid/worker.hpp"

namespace {

using spr::hybrid::ExecOptions;
using spr::hybrid::ExecResult;
using spr::hybrid::Mode;
using spr::hybrid::WorkStealingEngine;

constexpr unsigned kWorkerCounts[] = {1, 2, 4};

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
    for (const Mode mode : {Mode::kHybrid, Mode::kNaive}) {
      for (const unsigned workers : kWorkerCounts) {
        ExecOptions o = base_options(seed);
        o.mode = mode;
        o.workers = workers;
        WorkStealingEngine engine(t, o);
        const ExecResult r = engine.run();
        if (mode == Mode::kHybrid) {
          EXPECT_EQ(r.om_inserts, 3 * r.splits);
          EXPECT_LE(r.traces, 4 * r.steals + 1);
        }
        const spr::tree::ThreadId n = t.leaf_count();
        for (spr::tree::ThreadId u = 0; u < n; ++u) {
          for (spr::tree::ThreadId v = 0; v < n; ++v) {
            ASSERT_EQ(engine.precedes(u, v), oracle.precedes(u, v))
                << "seed=" << seed << " mode=" << static_cast<int>(mode)
                << " workers=" << workers << " precedes(" << u << ", " << v
                << ")";
          }
        }
      }
    }
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

TEST(SpHybridParallel, CorpusPairwiseAtFourWorkers) {
  for (const auto& prog : spr::testutil::corpus()) {
    const spr::testutil::Oracle oracle(prog.tree);
    ExecOptions o = base_options(99);
    o.mode = Mode::kHybrid;
    o.workers = 4;
    WorkStealingEngine engine(prog.tree, o);
    const ExecResult r = engine.run();
    EXPECT_EQ(r.om_inserts, 3 * r.splits) << prog.name;
    const spr::tree::ThreadId n = prog.tree.leaf_count();
    for (spr::tree::ThreadId u = 0; u < n; ++u) {
      for (spr::tree::ThreadId v = 0; v < n; ++v) {
        ASSERT_EQ(engine.precedes(u, v), oracle.precedes(u, v))
            << prog.name << ": precedes(" << u << ", " << v << ")";
      }
    }
  }
}

TEST(SpHybridParallel, RaceVerdictIsDeterministicAcrossWorkerCounts) {
  for (const bool inject : {false, true}) {
    const auto t = spr::fj::lower_to_parse_tree(
        spr::fj::make_dnc_fill(1u << 9, 8, inject));
    for (const Mode mode : {Mode::kHybrid, Mode::kNaive}) {
      for (const unsigned workers : kWorkerCounts) {
        ExecOptions o = base_options(3);
        o.mode = mode;
        o.workers = workers;
        o.queries_per_leaf = 0;
        o.detect_races = true;
        const ExecResult r = spr::hybrid::run_parallel(t, o);
        EXPECT_EQ(r.has_race(), inject)
            << "mode=" << static_cast<int>(mode) << " workers=" << workers;
      }
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
