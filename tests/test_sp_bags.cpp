// SP-bags tests: SP-bags must agree with SP-order and the LCA oracle on
// the on-the-fly query pattern (completed thread vs current thread)
// across the whole corpus, and the union-find substrate must uphold its
// structural invariants with and without path compression.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>

#include "sp_test_util.hpp"
#include "spbags/dsu.hpp"
#include "spbags/sp_bags.hpp"
#include "sporder/sp_order.hpp"
#include "util/rng.hpp"

namespace {

using spr::bags::AtomicDisjointSets;
using spr::bags::DisjointSets;

// At every leaf, queries every completed thread against the current one
// and demands SP-bags and SP-order both agree with the oracle.
void agreement_test(const spr::testutil::NamedProgram& p,
                    bool path_compression) {
  spr::bags::SpBags bags(p.tree, path_compression);
  spr::testutil::expect_matches_oracle_on_the_fly(p.tree, bags,
                                                  p.name + " sp-bags");
  spr::order::SpOrder order(p.tree);
  spr::testutil::expect_matches_oracle_on_the_fly(p.tree, order,
                                                  p.name + " sp-order");
}

TEST(SpBags, AgreesWithSpOrderAndOracleCompressed) {
  for (const auto& p : spr::testutil::corpus()) agreement_test(p, true);
}

TEST(SpBags, AgreesWithSpOrderAndOracleRankOnly) {
  for (const auto& p : spr::testutil::corpus()) agreement_test(p, false);
}

TEST(Dsu, TournamentUnionsYieldSingleRoot) {
  for (const bool compress : {true, false}) {
    constexpr std::uint32_t kN = 1u << 10;
    DisjointSets dsu(kN, compress);
    for (std::uint32_t stride = 1; stride < kN; stride *= 2)
      for (std::uint32_t i = 0; i + stride < kN; i += 2 * stride)
        dsu.unite(i, i + stride);
    const std::uint32_t root = dsu.find(0);
    for (std::uint32_t i = 0; i < kN; ++i) ASSERT_EQ(dsu.find(i), root);
  }
}

TEST(Dsu, PathCompressionShortensFinds) {
  constexpr std::uint32_t kN = 1u << 12;
  // Build identical tournament trees and probe every element twice; with
  // compression the second sweep must walk far fewer parent hops, and
  // without it the two sweeps cost exactly the same.
  DisjointSets with(kN, true), without(kN, false);
  for (auto* dsu : {&with, &without})
    for (std::uint32_t stride = 1; stride < kN; stride *= 2)
      for (std::uint32_t i = 0; i + stride < kN; i += 2 * stride)
        dsu->unite(i, i + stride);

  auto sweep_steps = [](DisjointSets& dsu) {
    const std::uint64_t s0 = dsu.find_steps();
    for (std::uint32_t i = 0; i < kN; ++i) (void)dsu.find(i);
    return dsu.find_steps() - s0;
  };
  const std::uint64_t c1 = sweep_steps(with);
  const std::uint64_t c2 = sweep_steps(with);
  const std::uint64_t r1 = sweep_steps(without);
  const std::uint64_t r2 = sweep_steps(without);
  EXPECT_LE(c2, c1);  // compression never lengthens paths
  EXPECT_LE(c2, kN);  // fully compressed: at most one hop per element
  EXPECT_EQ(r1, r2);  // rank-only pays the tree depth every time
  EXPECT_GT(r1, c2);  // ...which exceeds the compressed cost
}

TEST(Dsu, FindIsStableAndCountsProbes) {
  DisjointSets dsu(16, true);
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

TEST(Dsu, AtomicHalvingMatchesSerialPartition) {
  constexpr std::uint32_t kN = 512;
  for (const auto mode :
       {AtomicDisjointSets::Mode::kRankOnly,
        AtomicDisjointSets::Mode::kCasHalving}) {
    DisjointSets serial(kN, true);
    AtomicDisjointSets atomic(kN, mode);
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
}

TEST(SpBags, ExposesInstrumentedDsu) {
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_fib(10));
  spr::bags::SpBags bags(t);
  spr::tree::MaintenanceDriver d(bags);
  serial_walk(t, d);
  EXPECT_GT(bags.dsu().finds(), 0u);
  EXPECT_TRUE(bags.dsu().compression_enabled());
  spr::bags::SpBags plain(t, false);
  EXPECT_FALSE(plain.dsu().compression_enabled());
}

}  // namespace
