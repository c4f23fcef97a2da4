// Property test: SP-order must agree with a brute-force LCA oracle on
// every thread pair of every corpus program — random fork-join programs
// included, with seeded RNG so failures reproduce — and every backend
// must answer the same when driven from a recorded event trace instead of
// a walk. Also pins the English-order walk invariant the whole library
// relies on.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fjprog/record.hpp"
#include "labeling/english_hebrew.hpp"
#include "labeling/offset_span.hpp"
#include "sp_test_util.hpp"
#include "spbags/sp_bags.hpp"
#include "sporder/sp_order.hpp"

namespace {

using spr::testutil::corpus;
using spr::testutil::expect_matches_oracle_on_the_fly;
using spr::testutil::expect_matches_oracle_post_walk;

TEST(SpOrder, MatchesOracleOnCorpus) {
  for (const auto& p : corpus()) {
    spr::order::SpOrder algo(p.tree);
    expect_matches_oracle_post_walk(p.tree, algo, p.name);
  }
}

TEST(SpOrder, OnTheFlyQueriesDuringWalk) {
  // Query every completed thread against the current one *during* the
  // walk — the race-detector access pattern — not just post-hoc.
  for (const auto& p : corpus()) {
    spr::order::SpOrder algo(p.tree);
    expect_matches_oracle_on_the_fly(p.tree, algo, p.name);
  }
}

/// Drives `algo` from the program's recorded event trace instead of a
/// serial walk, checking the on-the-fly queries at every thread begin.
void expect_matches_oracle_from_events(const spr::tree::ParseTree& t,
                                       spr::tree::SpMaintenance& algo,
                                       const std::string& name) {
  const spr::testutil::Oracle oracle(t);
  for (const spr::race::stream::Event& e : spr::fj::record_events(t)) {
    spr::race::stream::feed_sp(algo, e);
    if (e.kind == spr::race::stream::EventKind::kThreadBegin)
      spr::testutil::expect_current_matches_oracle(algo, oracle, e.thread,
                                                   name);
  }
}

TEST(EventSource, EveryBackendMatchesOracleFromRecordedEvents) {
  // The event interface is the only SP-maintenance interface, so a
  // recorded trace must drive every backend exactly as a walk does.
  for (const auto& p : corpus()) {
    spr::order::SpOrder order(p.tree);
    expect_matches_oracle_from_events(p.tree, order, p.name + " sp-order");
    spr::bags::SpBags bags(p.tree);
    expect_matches_oracle_from_events(p.tree, bags, p.name + " sp-bags");
    spr::label::EnglishHebrew eh(p.tree);
    expect_matches_oracle_from_events(p.tree, eh, p.name + " english-hebrew");
    spr::label::OffsetSpan os(p.tree);
    expect_matches_oracle_from_events(p.tree, os, p.name + " offset-span");
  }
}

TEST(Walk, VisitsLeavesInEnglishOrder) {
  for (const auto& p : corpus()) {
    class V final : public spr::tree::WalkVisitor {
     public:
      void visit_leaf(const spr::tree::Node& n) override {
        threads.push_back(n.thread);
      }
      std::vector<spr::tree::ThreadId> threads;
    } v;
    serial_walk(p.tree, v);
    ASSERT_EQ(v.threads.size(), p.tree.leaf_count()) << p.name;
    for (std::size_t i = 0; i < v.threads.size(); ++i)
      ASSERT_EQ(v.threads[i], static_cast<spr::tree::ThreadId>(i)) << p.name;
  }
}

TEST(Generators, Deterministic) {
  const auto a = spr::fj::lower_to_parse_tree(
      spr::fj::make_random_program(1234, 200));
  const auto b = spr::fj::lower_to_parse_tree(
      spr::fj::make_random_program(1234, 200));
  ASSERT_EQ(a.leaf_count(), b.leaf_count());
  ASSERT_EQ(a.node_count(), b.node_count());
  const spr::testutil::Oracle oa(a), ob(b);
  for (spr::tree::ThreadId u = 0; u < a.leaf_count(); ++u)
    for (spr::tree::ThreadId v = 0; v < a.leaf_count(); ++v)
      ASSERT_EQ(oa.precedes(u, v), ob.precedes(u, v));
}

TEST(SpOrder, ConstructionCostIsLinearish) {
  // Theorem 5 smoke check at unit-test scale: total OM items moved per
  // insert stays bounded as the program grows.
  for (const int depth : {8, 10, 12}) {
    const auto t =
        spr::fj::lower_to_parse_tree(spr::fj::make_balanced(depth));
    spr::order::SpOrder algo(t);
    spr::tree::MaintenanceDriver d(algo);
    serial_walk(t, d);
    const auto& st = algo.english_stats();
    ASSERT_GT(st.inserts, 0u);
    const double moved = static_cast<double>(st.items_moved) /
                         static_cast<double>(st.inserts);
    EXPECT_LT(moved, 8.0) << "depth " << depth;
  }
}

}  // namespace
