#pragma once
// SP-hybrid execution harness (Sections 3-6). run_parallel() dispatches on
// ExecOptions::mode:
//   kPlain / kNaive / kHybrid run on the real work-stealing engine
//     (sphybrid/worker.hpp): per-worker Chase-Lev deques, SP-bags over
//     traces, and global order-maintenance insertions only on steals.
//   kSerialReference keeps the old serial driver: it executes the program
//     in English order on the calling thread with a full serial SP-order.
//     It is the oracle the parallel tests compare against — per-leaf query
//     streams and the order-independent checksum are shared with the
//     engine, so a correct parallel run reproduces its checksum exactly at
//     any worker count.
//
// Counters are measured (steals, splits, om_inserts, lock_wait_ns); the
// tests and thm10 assert 3 global OM insertions per split against them.
// `workers` is validated: 0 throws std::invalid_argument, larger requests
// clamp to hardware_concurrency (floor 4, so concurrent paths still run
// on tiny CI hosts).

#include <cstdint>

#include "race/shadow_protocol.hpp"
#include "race/stream/shadow_shards.hpp"
#include "sphybrid/worker.hpp"
#include "sporder/sp_order.hpp"
#include "sptree/sp_maintenance.hpp"
#include "sptree/walk.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"

namespace spr::hybrid {

namespace detail {

/// Serial oracle driver: executes leaf work in English order, maintains a
/// full serial SP-order, issues the same per-leaf query streams as the
/// parallel engine, and (optionally) runs the shadow-memory protocol on
/// a one-owner shadow sized once from the tree's footprint estimate.
class SerialDriver final
    : public tree::MaintenanceDriver<order::StreamingSpOrder> {
 public:
  SerialDriver(const tree::ParseTree& t, const ExecOptions& o, ExecResult& r,
               order::StreamingSpOrder& sp)
      : MaintenanceDriver(sp), tree_(t), opts_(o), result_(r) {
    if (o.detect_races) shadow_.reserve(t.footprint());
  }

  void visit_leaf(const tree::Node& n) override {
    MaintenanceDriver::visit_leaf(n);
    spin_xor_ ^= util::spin_work(n.work);
    const tree::ThreadId v = n.thread;
    if (opts_.queries_per_leaf > 0) {
      // Same deterministic stream as the engine's do_leaf, so checksums
      // agree bit-for-bit across modes and worker counts.
      util::Xoshiro256 rng = leaf_query_rng(opts_.seed, v);
      for (std::uint32_t q = 0; q < opts_.queries_per_leaf && v > 0; ++q) {
        const auto u = static_cast<tree::ThreadId>(rng.next_below(v));
        digest_sum_ += query_digest(u, v, sp_.precedes(u, v));
        ++result_.queries;
      }
    }
    if (opts_.detect_races) detect(v);
  }

  void finish() { result_.checksum = spin_xor_ + digest_sum_; }

 private:
  void detect(tree::ThreadId v) {
    const auto serial = race::counted_serial(
        [this](tree::ThreadId u, tree::ThreadId w) {
          return sp_.precedes(u, w);
        },
        result_.queries);
    for (const tree::Access& a : tree_.accesses(v))
      shadow_.apply(/*stream=*/0, a, v, serial, result_.race_count);
  }

  const tree::ParseTree& tree_;
  const ExecOptions& opts_;
  ExecResult& result_;
  std::uint64_t spin_xor_ = 0;
  std::uint64_t digest_sum_ = 0;
  race::stream::OwnedDeterminacyShadow shadow_;
};

}  // namespace detail

/// Executes `t` under the requested mode and returns timing + the
/// Theorem 10 accounting counters (all measured; see worker.hpp).
inline ExecResult run_parallel(const tree::ParseTree& t,
                               const ExecOptions& o) {
  if (o.mode == Mode::kSerialReference) {
    resolve_workers(o.workers);  // validates, throws; the count is unused
    ExecResult r;
    order::StreamingSpOrder sp(t.leaf_count());
    detail::SerialDriver driver(t, o, r, sp);
    const util::Stopwatch sw;
    serial_walk(t, driver);
    r.elapsed_s = sw.elapsed_s();
    driver.finish();
    r.workers_used = 1;  // the oracle always runs on the calling thread
    util::do_not_optimize(r.checksum);
    return r;
  }
  WorkStealingEngine engine(t, o);
  return engine.run();
}

}  // namespace spr::hybrid
