#pragma once
// SP-hybrid execution harness (Sections 3-6). run_parallel() dispatches on
// ExecOptions::mode:
//   kPlain / kNaive / kHybrid run on the real work-stealing engine
//     (sphybrid/worker.hpp): per-worker Chase-Lev deques, SP-bags over
//     traces, and global order-maintenance insertions only on steals.
//   kSerialReference is the oracle the parallel tests compare against:
//     one serial SP-order walk on the calling thread, by Corollary 6's
//     detector (race::detect_races) when detecting races. The per-leaf
//     query streams and the order-independent checksum are shared with
//     the engine, so a correct parallel run reproduces its checksum
//     exactly at any worker count.
//
// Counters are measured (steals, splits, om_inserts, lock_wait_ns); the
// tests and thm10 assert 3 global OM insertions per split against them.
// `workers` is validated: 0 throws std::invalid_argument, larger requests
// clamp to hardware_concurrency (floor 4, so concurrent paths still run
// on tiny CI hosts).

#include <cstdint>

#include "race/detector.hpp"
#include "sphybrid/worker.hpp"
#include "sporder/sp_order.hpp"
#include "sptree/walk.hpp"
#include "util/timing.hpp"

namespace spr::hybrid {

/// Executes `t` under the requested mode and returns timing + the
/// Theorem 10 accounting counters (all measured; see worker.hpp).
inline ExecResult run_parallel(const tree::ParseTree& t,
                               const ExecOptions& o) {
  if (o.mode != Mode::kSerialReference) {
    WorkStealingEngine engine(t, o);
    return engine.run();
  }
  resolve_workers(o.workers);  // validates, throws; the count is unused
  ExecResult r;
  order::StreamingSpOrder sp(t.leaf_count());
  const util::Stopwatch sw;
  if (o.detect_races) {
    const race::RaceReport rep = race::detect_races(t, sp);
    r.race_count = rep.race_count;
    r.queries = rep.queries;
  } else {
    tree::MaintenanceDriver driver(sp);
    serial_walk(t, driver);
  }
  // SP-order answers any pair of completed threads (Theorem 4) and its
  // lists are insert-only, so asking each leaf's stream after the walk
  // gives the answers it got on the fly.
  std::uint64_t spin = 0, digest = 0;
  for (tree::ThreadId v = 0; v < t.leaf_count(); ++v) {
    spin ^= util::spin_work(t.leaf(v).work);
    for_each_leaf_query(o.seed, o.queries_per_leaf, v, [&](tree::ThreadId u) {
      digest += query_digest(u, v, sp.precedes(u, v));
      ++r.queries;
    });
  }
  r.elapsed_s = sw.elapsed_s();
  r.checksum = spin + digest;
  r.workers_used = 1;  // the oracle always runs on the calling thread
  util::do_not_optimize(r.checksum);
  return r;
}

}  // namespace spr::hybrid
