// Race-detector tests (Corollary 6 and the ALL-SETS extension): the
// determinacy detector must flag exactly the programs constructed with a
// race, with both SP-order and SP-bags backends; ALL-SETS must honor
// locksets (the locked accumulator is a determinacy race but not a data
// race).

#include <gtest/gtest.h>

#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "race/detector.hpp"
#include "sp_test_util.hpp"
#include "spbags/sp_bags.hpp"
#include "sporder/sp_order.hpp"

namespace {

using spr::fj::add_access;
using spr::fj::leaf;
using spr::fj::par;
using spr::fj::seq;
using spr::tree::ParseTree;

bool detect_with_sporder(const ParseTree& t) {
  spr::order::SpOrder algo(t);
  return spr::race::detect_races(t, algo).has_race();
}

bool detect_with_spbags(const ParseTree& t) {
  spr::bags::SpBags algo(t);
  return spr::race::detect_races(t, algo).has_race();
}

void expect_verdict(const ParseTree& t, bool expect_race,
                    const char* what) {
  EXPECT_EQ(detect_with_sporder(t), expect_race) << what << " (sp-order)";
  EXPECT_EQ(detect_with_spbags(t), expect_race) << what << " (sp-bags)";
}

TEST(Detector, HandBuiltParallelWriteWrite) {
  spr::fj::FjNode a = leaf(0), b = leaf(0);
  add_access(a, 7, true);
  add_access(b, 7, true);
  std::vector<spr::fj::FjNode> kids;
  kids.push_back(std::move(a));
  kids.push_back(std::move(b));
  const auto t = spr::fj::lower_to_parse_tree({par(std::move(kids))});
  expect_verdict(t, true, "par write-write");
}

TEST(Detector, HandBuiltSerialWriteWriteIsClean) {
  spr::fj::FjNode a = leaf(0), b = leaf(0);
  add_access(a, 7, true);
  add_access(b, 7, true);
  std::vector<spr::fj::FjNode> kids;
  kids.push_back(std::move(a));
  kids.push_back(std::move(b));
  const auto t = spr::fj::lower_to_parse_tree({seq(std::move(kids))});
  expect_verdict(t, false, "seq write-write");
}

TEST(Detector, HandBuiltParallelReadReadIsClean) {
  spr::fj::FjNode a = leaf(0), b = leaf(0);
  add_access(a, 7, false);
  add_access(b, 7, false);
  std::vector<spr::fj::FjNode> kids;
  kids.push_back(std::move(a));
  kids.push_back(std::move(b));
  const auto t = spr::fj::lower_to_parse_tree({par(std::move(kids))});
  expect_verdict(t, false, "par read-read");
}

TEST(Detector, HandBuiltParallelReadWrite) {
  spr::fj::FjNode a = leaf(0), b = leaf(0);
  add_access(a, 7, false);
  add_access(b, 7, true);
  std::vector<spr::fj::FjNode> kids;
  kids.push_back(std::move(a));
  kids.push_back(std::move(b));
  const auto t = spr::fj::lower_to_parse_tree({par(std::move(kids))});
  expect_verdict(t, true, "par read-write");
}

TEST(Detector, ReaderSurvivesSerialRead) {
  // u0 reads x in parallel with a later writer, but another *serial* read
  // happens in between; the sticky-reader slot must keep u0 alive.
  //   par( seq(read x, read x'), ... ) hmm — simplest: par(read, seq(read, write))
  spr::fj::FjNode r1 = leaf(0), r2 = leaf(0), w = leaf(0);
  add_access(r1, 3, false);
  add_access(r2, 3, false);
  add_access(w, 3, true);
  std::vector<spr::fj::FjNode> inner;
  inner.push_back(std::move(r2));
  inner.push_back(std::move(w));
  std::vector<spr::fj::FjNode> kids;
  kids.push_back(std::move(r1));
  kids.push_back(seq(std::move(inner)));
  const auto t = spr::fj::lower_to_parse_tree({par(std::move(kids))});
  // r1 || w conflict on loc 3 even though r2 < w.
  expect_verdict(t, true, "parallel read survives serial read");
}

TEST(Detector, GeneratedKernelsCleanAndInjected) {
  expect_verdict(spr::fj::lower_to_parse_tree(
                     spr::fj::make_dnc_fill(256, 4, false)),
                 false, "dnc_fill clean");
  expect_verdict(spr::fj::lower_to_parse_tree(
                     spr::fj::make_dnc_fill(256, 4, true)),
                 true, "dnc_fill injected");
  expect_verdict(spr::fj::lower_to_parse_tree(
                     spr::fj::make_reduce_sum(128, 4, false)),
                 false, "reduce_sum clean");
  expect_verdict(spr::fj::lower_to_parse_tree(
                     spr::fj::make_reduce_sum(128, 4, true)),
                 true, "reduce_sum injected");
  expect_verdict(spr::fj::lower_to_parse_tree(
                     spr::fj::make_stencil(64, 8, false)),
                 false, "stencil clean");
  expect_verdict(spr::fj::lower_to_parse_tree(
                     spr::fj::make_stencil(64, 8, true)),
                 true, "stencil injected");
}

TEST(Detector, QueriesAreCounted) {
  // reduce_sum has cross-thread shadow hits (combiners read the partials
  // their children wrote), so the protocol must issue SP queries.
  const auto t =
      spr::fj::lower_to_parse_tree(spr::fj::make_reduce_sum(128, 4));
  spr::order::SpOrder algo(t);
  const auto report = spr::race::detect_races(t, algo);
  EXPECT_FALSE(report.has_race());
  EXPECT_GT(report.queries, 0u);
}

TEST(Detector, BackendsAgreeOnVerdictAndQueriesOverCorpus) {
  // The detector asks the same queries whatever the backend, so every
  // backend must return the same race count and the same query count.
  for (const auto& p : spr::testutil::corpus()) {
    spr::order::SpOrder order(p.tree);
    spr::bags::SpBags bags(p.tree);
    const auto ref = spr::race::detect_races(p.tree, order);
    const auto got = spr::race::detect_races(p.tree, bags);
    EXPECT_EQ(got.race_count, ref.race_count) << p.name;
    EXPECT_EQ(got.queries, ref.queries) << p.name;
  }
}

TEST(AllSets, LockedAccumulatorIsDeterminacyButNotDataRace) {
  const auto locked = spr::fj::lower_to_parse_tree(
      spr::fj::make_locked_accumulator(64, 8, true));
  spr::order::SpOrder a1(locked), a2(locked);
  EXPECT_TRUE(spr::race::detect_races(locked, a1).has_race());
  EXPECT_FALSE(spr::race::detect_lock_races(locked, a2).has_race());
}

TEST(AllSets, UnlockedAccumulatorIsAlsoDataRace) {
  const auto unlocked = spr::fj::lower_to_parse_tree(
      spr::fj::make_locked_accumulator(64, 8, false));
  spr::order::SpOrder a1(unlocked), a2(unlocked);
  EXPECT_TRUE(spr::race::detect_races(unlocked, a1).has_race());
  EXPECT_TRUE(spr::race::detect_lock_races(unlocked, a2).has_race());
}

TEST(AllSets, DisjointLocksetsStillRace) {
  // Two parallel writers holding *different* locks: ALL-SETS must flag.
  spr::fj::FjNode a = leaf(0), b = leaf(0);
  add_access(a, 9, true, /*locks=*/0b01);
  add_access(b, 9, true, /*locks=*/0b10);
  std::vector<spr::fj::FjNode> kids;
  kids.push_back(std::move(a));
  kids.push_back(std::move(b));
  const auto t = spr::fj::lower_to_parse_tree({par(std::move(kids))});
  spr::order::SpOrder algo(t);
  EXPECT_TRUE(spr::race::detect_lock_races(t, algo).has_race());
}

TEST(AllSets, SharedLockSerializesAndCleanKernelsStayClean) {
  const auto t = spr::fj::lower_to_parse_tree(
      spr::fj::make_dnc_fill(256, 4, false));
  spr::bags::SpBags algo(t);
  EXPECT_FALSE(spr::race::detect_lock_races(t, algo).has_race());
  const auto racy = spr::fj::lower_to_parse_tree(
      spr::fj::make_dnc_fill(256, 4, true));
  spr::bags::SpBags algo2(racy);
  EXPECT_TRUE(spr::race::detect_lock_races(racy, algo2).has_race());
}

}  // namespace
