#pragma once
// Serial on-the-fly determinacy-race detection (Corollary 6): the walker
// executes the program serially, drives its SP-maintenance backend
// through walk.hpp's MaintenanceDriver, and applies each thread's
// accesses to a one-owner shadow memory while that thread is current (the
// contract strictly on-the-fly backends like SP-bags depend on). The
// input is a trusted in-process tree, so nothing is validated; the
// untrusted boundary is the streaming service (race/stream/service.hpp),
// which runs the same shadow tables and query accounting on event
// streams and must report the same verdicts and query counts.
//
// Two detectors share this walker and differ only in their shadow
// (race/stream/shadow_shards.hpp), as Corollary 6 and the abstract's
// extension say:
//   detect_races       determinacy races. The shadow protocol (last
//                      writer + recent reader + sticky parallel reader)
//                      lives in race/shadow_protocol.hpp; its soundness
//                      and completeness on serial replays is certified
//                      exhaustively by tests/race_completeness_test.cpp.
//   detect_lock_races  ALL-SETS (Cheng et al.) lock-aware data races: an
//                      access races with a history entry iff at least one
//                      side writes, the locksets are disjoint, and the
//                      threads are parallel.

#include <cstdint>

#include "race/shadow_protocol.hpp"
#include "race/stream/shadow_shards.hpp"
#include "sptree/sp_maintenance.hpp"
#include "sptree/walk.hpp"
#include "util/timing.hpp"

namespace spr::race {

namespace detail {

/// Templated on the SP algorithm so detection can run over any backend
/// (tree::SpMaintenance subclasses or a concrete SP-order) with
/// statically bound calls, and on the shadow protocol
/// (OwnedDeterminacyShadow or OwnedAllSetsShadow), whose table is sized
/// once from the tree's footprint estimate. Every query goes through
/// `sp.precedes`.
template <typename SpAlgo, typename Shadow>
class DetectVisitor final : public tree::MaintenanceDriver<SpAlgo> {
 public:
  DetectVisitor(const tree::ParseTree& t, SpAlgo& sp)
      : tree::MaintenanceDriver<SpAlgo>(sp), tree_(t) {
    shadow_.reserve(t.footprint());
  }

  void visit_leaf(const tree::Node& n) override {
    tree::MaintenanceDriver<SpAlgo>::visit_leaf(n);
    checksum ^= util::spin_work(n.work);
    SpAlgo& sp = this->sp_;
    const auto serial = counted_serial(
        [&sp](tree::ThreadId u, tree::ThreadId v) { return sp.precedes(u, v); },
        report.queries);
    for (const tree::Access& a : tree_.accesses(n.thread))
      shadow_.apply(/*stream=*/0, a, n.thread, serial, report.race_count);
  }

  RaceReport report;
  std::uint64_t checksum = 0;

 private:
  const tree::ParseTree& tree_;
  Shadow shadow_;
};

/// Shared driver for the two entry points below.
template <typename Shadow, typename SpAlgo>
inline RaceReport detect(const tree::ParseTree& t, SpAlgo& algo) {
  DetectVisitor<SpAlgo, Shadow> v(t, algo);
  serial_walk(t, v);
  util::do_not_optimize(v.checksum);
  return v.report;
}

}  // namespace detail

/// Runs serial on-the-fly determinacy-race detection over `t`, using a
/// fresh `algo` (any SpMaintenance backend) for SP queries.
template <typename SpAlgo>
inline RaceReport detect_races(const tree::ParseTree& t, SpAlgo& algo) {
  return detail::detect<stream::OwnedDeterminacyShadow>(t, algo);
}

/// Runs ALL-SETS lock-aware data-race detection over `t` with a fresh
/// SP-maintenance backend `algo`.
template <typename SpAlgo>
inline RaceReport detect_lock_races(const tree::ParseTree& t, SpAlgo& algo) {
  return detail::detect<stream::OwnedAllSetsShadow>(t, algo);
}

}  // namespace spr::race
