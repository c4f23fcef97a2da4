// SP-bags tests: SP-bags must agree with SP-order and the LCA oracle on
// the on-the-fly query pattern (completed thread vs current thread)
// across the whole corpus, both union-finds (the compressing serial one
// and SP-hybrid's rank-only atomic one) must uphold their structural
// invariants, and SP-hybrid's trace bags must answer from the word of the
// set root alone whenever that word decides.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>

#include "sp_test_util.hpp"
#include "spbags/dsu.hpp"
#include "spbags/sp_bags.hpp"
#include "spbags/trace_bags.hpp"
#include "sporder/sp_order.hpp"
#include "util/rng.hpp"

namespace {

using spr::bags::AtomicDisjointSets;
using spr::bags::DisjointSets;
using spr::bags::TraceBags;

// At every leaf, queries every completed thread against the current one
// and demands SP-bags and SP-order both agree with the oracle.
TEST(SpBags, AgreesWithSpOrderAndOracleCompressed) {
  for (const auto& p : spr::testutil::corpus()) {
    spr::bags::SpBags bags(p.tree);
    spr::testutil::expect_matches_oracle_on_the_fly(p.tree, bags,
                                                    p.name + " sp-bags");
    spr::order::SpOrder order(p.tree);
    spr::testutil::expect_matches_oracle_on_the_fly(p.tree, order,
                                                    p.name + " sp-order");
  }
}

TEST(Dsu, TournamentUnionsYieldSingleRoot) {
  constexpr std::uint32_t kN = 1u << 10;
  DisjointSets dsu(kN);
  for (std::uint32_t stride = 1; stride < kN; stride *= 2)
    for (std::uint32_t i = 0; i + stride < kN; i += 2 * stride)
      dsu.unite(i, i + stride);
  const std::uint32_t root = dsu.find(0);
  for (std::uint32_t i = 0; i < kN; ++i) ASSERT_EQ(dsu.find(i), root);
}

TEST(Dsu, PathCompressionShortensFinds) {
  constexpr std::uint32_t kN = 1u << 12;
  // Build a tournament tree and probe every element twice: compression
  // must make the second sweep walk strictly fewer parent hops.
  DisjointSets dsu(kN);
  for (std::uint32_t stride = 1; stride < kN; stride *= 2)
    for (std::uint32_t i = 0; i + stride < kN; i += 2 * stride)
      dsu.unite(i, i + stride);

  auto sweep_steps = [&dsu] {
    const std::uint64_t s0 = dsu.find_steps();
    for (std::uint32_t i = 0; i < kN; ++i) (void)dsu.find(i);
    return dsu.find_steps() - s0;
  };
  const std::uint64_t c1 = sweep_steps();
  const std::uint64_t c2 = sweep_steps();
  EXPECT_LT(c2, c1);  // the first sweep compressed the paths
  EXPECT_LE(c2, kN);  // fully compressed: at most one hop per element
}

TEST(Dsu, FindIsStableAndCountsProbes) {
  DisjointSets dsu(16);
  dsu.unite(0, 1);
  dsu.unite(2, 3);
  dsu.unite(0, 2);
  const std::uint64_t f0 = dsu.finds();
  const std::uint32_t r = dsu.find(3);
  EXPECT_EQ(dsu.find(r), r);  // roots are fixed points
  EXPECT_EQ(dsu.find(0), dsu.find(3));
  EXPECT_NE(dsu.find(0), dsu.find(5));
  EXPECT_EQ(dsu.finds(), f0 + 6);
  // Re-uniting already-joined sets is a no-op.
  const std::uint32_t before = dsu.find(0);
  EXPECT_EQ(dsu.unite(1, 3), before);
}

TEST(Dsu, AtomicMatchesSerialPartition) {
  constexpr std::uint32_t kN = 512;
  DisjointSets serial(kN);
  AtomicDisjointSets atomic(kN);
  spr::util::Xoshiro256 rng(99);
  for (int op = 0; op < 600; ++op) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(kN));
    const auto b = static_cast<std::uint32_t>(rng.next_below(kN));
    serial.unite(a, b);
    atomic.unite(a, b);
  }
  // Identical partitions: root-equality must match on sampled pairs.
  for (int probe = 0; probe < 4000; ++probe) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(kN));
    const auto b = static_cast<std::uint32_t>(rng.next_below(kN));
    ASSERT_EQ(serial.find(a) == serial.find(b),
              atomic.find(a) == atomic.find(b));
  }
}

// Leaves 0 and 1 ran in trace 7; the worker that completed their subtree
// united them and classified the set S while running trace 3, then went
// on to leaf 2. Leaf 2's query is answered by the word: the classifying
// trace is the querying one. Leaf 3 never ran and leaf 4's set is
// classified P, so both are parallel to leaf 2 without a pair query.
TEST(TraceBags, SerialSetClassifiedByQueryingTraceAnswersFromWord) {
  constexpr std::uint32_t kLeafTrace = 7, kJoinTrace = 3;
  TraceBags bags(5);
  bags.unite(0, 1);
  bags.classify(1, /*serial=*/true, kJoinTrace, kJoinTrace);
  bags.classify(4, /*serial=*/false, kLeafTrace, kLeafTrace);
  std::uint32_t pair = ~0u;
  for (const spr::tree::ThreadId u : {0u, 1u})
    EXPECT_EQ(bags.precedes_fast(u, kJoinTrace, pair),
              TraceBags::Answer::kSerial)
        << "u=" << u;
  EXPECT_EQ(bags.precedes_fast(3, kJoinTrace, pair),
            TraceBags::Answer::kParallel);
  EXPECT_EQ(bags.precedes_fast(4, kJoinTrace, pair),
            TraceBags::Answer::kParallel);
  EXPECT_EQ(pair, ~0u) << "decided answers leave the pair untouched";
  // Another trace must compare item pairs: the word hands it the
  // classifying trace's pair, and a re-point replaces exactly that pair.
  EXPECT_EQ(bags.precedes_fast(0, kLeafTrace, pair), TraceBags::Answer::kMiss);
  EXPECT_EQ(pair, kJoinTrace);
  EXPECT_FALSE(bags.repoint(0, /*from=*/kLeafTrace, /*to=*/40));
  EXPECT_TRUE(bags.repoint(0, /*from=*/kJoinTrace, /*to=*/40));
  EXPECT_FALSE(bags.repoint(4, /*from=*/kLeafTrace, /*to=*/40));
  EXPECT_EQ(bags.precedes_fast(1, kLeafTrace, pair), TraceBags::Answer::kMiss);
  EXPECT_EQ(pair, 40u);
  EXPECT_EQ(bags.precedes_fast(1, kJoinTrace, pair),
            TraceBags::Answer::kSerial);
}

TEST(SpBags, ExposesInstrumentedDsu) {
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_fib(10));
  spr::bags::SpBags bags(t);
  spr::tree::MaintenanceDriver d(bags);
  serial_walk(t, d);
  EXPECT_GT(bags.dsu().finds(), 0u);
}

}  // namespace
