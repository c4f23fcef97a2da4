#pragma once
// Shared helpers for the benchmark harnesses: a walk driver that issues
// race-detector-style SP queries at every thread, timed with and without
// queries so per-operation costs can be separated, and digested so two
// backends' answers to the same query stream can be compared.

#include <cstdint>

#include "sphybrid/worker.hpp"
#include "sptree/sp_maintenance.hpp"
#include "sptree/walk.hpp"
#include "util/timing.hpp"

namespace spr::benchutil {

struct WalkTimes {
  double walk_s = 0;          ///< full walk, maintenance only
  std::uint64_t threads = 0;
  double query_walk_s = 0;    ///< second walk including queries
  std::uint64_t queries = 0;
  std::uint64_t digest = 0;   ///< sum of hybrid::query_digest over answers

  double ns_per_thread() const {
    return threads == 0 ? 0 : walk_s * 1e9 / static_cast<double>(threads);
  }
  double ns_per_query() const {
    if (queries == 0) return 0;
    const double extra = query_walk_s - walk_s;
    return (extra > 0 ? extra : 0) * 1e9 / static_cast<double>(queries);
  }
};

/// Visitor driving a maintenance algorithm and optionally issuing
/// `queries_per_leaf` precedes() calls against random prior threads (the
/// engine's per-leaf query stream), while each thread runs: SP-bags
/// answers only on the fly.
class DrivingVisitor final : public tree::MaintenanceDriver<> {
 public:
  DrivingVisitor(tree::SpMaintenance& algo, std::uint32_t queries_per_leaf,
                 std::uint64_t seed)
      : MaintenanceDriver(algo), qpl_(queries_per_leaf), seed_(seed) {}

  void visit_leaf(const tree::Node& n) override {
    MaintenanceDriver::visit_leaf(n);
    const tree::ThreadId cur = n.thread;
    hybrid::for_each_leaf_query(seed_, qpl_, cur, [&](tree::ThreadId u) {
      digest += hybrid::query_digest(u, cur, sp_.precedes(u, cur));
      ++queries;
    });
  }

  std::uint64_t queries = 0;
  std::uint64_t digest = 0;

 private:
  std::uint32_t qpl_;
  std::uint64_t seed_;
};

/// Times one maintenance-only walk of `algo` (which must be fresh).
inline double time_walk(const tree::ParseTree& t, tree::SpMaintenance& algo) {
  DrivingVisitor v(algo, 0, 1);
  const util::Stopwatch sw;
  serial_walk(t, v);
  return sw.elapsed_s();
}

/// Times a walk of `algo` (fresh) issuing `qpl` queries per thread.
inline WalkTimes time_walk_with_queries(const tree::ParseTree& t,
                                        tree::SpMaintenance& algo,
                                        std::uint32_t qpl,
                                        double plain_walk_s) {
  DrivingVisitor v(algo, qpl, 7);
  const util::Stopwatch sw;
  serial_walk(t, v);
  WalkTimes wt;
  wt.walk_s = plain_walk_s;
  wt.query_walk_s = sw.elapsed_s();
  wt.threads = t.leaf_count();
  wt.queries = v.queries;
  wt.digest = v.digest;
  return wt;
}

}  // namespace spr::benchutil
