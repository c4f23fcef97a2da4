#pragma once
// The one place spbench touches the library. Every call the benchmark
// times — program generation and lowering, the serial detector, the
// streaming service and its parts, the tree-indexed SP-order, the
// SP-hybrid engine — goes through a name declared here, so renaming or
// merging a library type edits this header and not the benchmark logic.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "fjprog/record.hpp"
#include "race/detector.hpp"
#include "race/stream/service.hpp"
#include "sphybrid/executor.hpp"
#include "sporder/sp_order.hpp"
#include "sptree/walk.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"

namespace spbench::layers {

namespace stream = spr::race::stream;

using Rng = spr::util::Xoshiro256;
using Prog = spr::fj::FjProg;
using ProgNode = spr::fj::FjNode;
using Tree = spr::tree::ParseTree;
using ThreadId = spr::tree::ThreadId;
using Access = spr::tree::Access;
using Event = stream::Event;
using EventKind = stream::EventKind;
using Batch = stream::Batch;
using StreamId = stream::StreamId;
using IngestResult = stream::IngestResult;
using Service = stream::IngestService;
using StreamReport = stream::StreamReport;
using Validator = stream::TraceValidator;
using StreamSp = stream::StreamingSpOrder;
using Shadow = stream::DeterminacyShadow;
using RaceReport = spr::race::RaceReport;
using OmStats = spr::om::OrderList::Stats;
using ExecResult = spr::hybrid::ExecResult;
using QueryPair = std::pair<ThreadId, ThreadId>;

inline constexpr ThreadId kNoThread = spr::tree::kNoThread;
inline constexpr std::uint32_t kShards = 16;  ///< service shard count

// ---- fjprog: generators, lowering, recording ------------------------------

inline Prog stencil(std::uint64_t n, std::uint32_t grain, bool race) {
  return spr::fj::make_stencil(n, grain, race);
}
inline Prog reduce_sum(std::uint64_t n, std::uint32_t grain, bool race) {
  return spr::fj::make_reduce_sum(n, grain, race);
}
inline Prog dnc_fill(std::uint64_t n, std::uint32_t grain, bool race) {
  return spr::fj::make_dnc_fill(n, grain, race);
}
inline Prog random_program(std::uint64_t seed, std::uint32_t leaves) {
  return spr::fj::make_random_program(seed, leaves);
}

/// Calls `f(leaf)` for every thread of `p`, in English order.
template <typename F>
void for_each_leaf(ProgNode& n, F&& f) {
  if (n.kind == spr::fj::FjKind::kLeaf) {
    f(n);
    return;
  }
  for (ProgNode& c : n.children) for_each_leaf(c, f);
}

inline void add_access(ProgNode& leaf, std::uint64_t loc, bool write) {
  spr::fj::add_access(leaf, loc, write);
}

/// Rewrites every access location of `p` as `f(loc)`.
template <typename F>
void map_locations(Prog& p, F&& f) {
  for_each_leaf(p.root, [&f](ProgNode& leaf) {
    for (Access& a : leaf.accesses) a.loc = f(a.loc);
  });
}

inline Tree lower(const Prog& p) { return spr::fj::lower_to_parse_tree(p); }
inline std::vector<Event> record(const Tree& t) {
  return spr::fj::record_events(t);
}

// ---- sptree / sporder: plain walk, SP maintenance, SP queries -------------

/// Plain execution: spin each thread's work and read its accesses, with
/// no SP maintenance and no shadow memory (the Corollary 6 baseline).
inline std::uint64_t plain_walk(const Tree& t) {
  struct Plain final : spr::tree::WalkVisitor {
    explicit Plain(const Tree& tr) : tree(tr) {}
    void visit_leaf(const spr::tree::Node& n) override {
      sum ^= spr::util::spin_work(n.work);
      for (const Access& a : tree.accesses(n.thread))
        sum += a.loc + (a.write ? 1 : 0);
    }
    const Tree& tree;
    std::uint64_t sum = 0;
  } v(t);
  spr::tree::serial_walk(t, v);
  spr::util::do_not_optimize(v.sum);
  return v.sum;
}

using SerialSp = spr::order::SpOrder;

/// Drives only the SP-maintenance callbacks of `sp` over a walk of `t`.
inline void maintain(const Tree& t, SerialSp& sp) {
  spr::tree::MaintenanceDriver d(sp);
  spr::tree::serial_walk(t, d);
}

/// Re-issues recorded SP queries on `sp` (a SerialSp or a StreamSp).
template <typename Sp>
std::uint64_t replay_queries(Sp& sp, const std::vector<QueryPair>& pairs) {
  std::uint64_t yes = 0;
  for (const QueryPair& q : pairs) yes += sp.precedes(q.first, q.second);
  spr::util::do_not_optimize(yes);
  return yes;
}

/// English plus Hebrew list counters of one SP-order.
inline OmStats sum(const OmStats& a, const OmStats& b) {
  OmStats s;
  s.inserts = a.inserts + b.inserts;
  s.erases = a.erases + b.erases;
  s.items_moved = a.items_moved + b.items_moved;
  s.bucket_splits = a.bucket_splits + b.bucket_splits;
  s.buckets_freed = a.buckets_freed + b.buckets_freed;
  s.top_relabels = a.top_relabels + b.top_relabels;
  return s;
}

/// OM counters of an SP-order (a SerialSp or a StreamSp).
template <typename Sp>
OmStats om_stats(const Sp& sp) {
  return sum(sp.english_stats(), sp.hebrew_stats());
}

// ---- race.detector: the serial Corollary 6 detector -----------------------

inline RaceReport detect_races(const Tree& t) {
  SerialSp sp(t);
  return spr::race::detect_races(t, sp);
}

/// Same detection, logging every SP query the detector issues.
inline RaceReport detect_races_logging(const Tree& t,
                                       std::vector<QueryPair>& pairs) {
  struct Logging final : SerialSp {
    Logging(const Tree& tr, std::vector<QueryPair>& p) : SerialSp(tr), log(p) {}
    bool precedes(ThreadId u, ThreadId v) override {
      log.emplace_back(u, v);
      return SerialSp::precedes(u, v);
    }
    std::vector<QueryPair>& log;
  } sp(t, pairs);
  return spr::race::detect_races(t, sp);
}

// ---- race.stream: the service, and its parts driven one batch at a time ---

/// Runs a whole recorded trace through a fresh service (native per-stream
/// SP-order, independent of the tree-indexed SP-order the serial detector
/// uses). Returns false if the service rejects any part of it.
inline bool service_detect(const std::vector<Event>& events, RaceReport& out) {
  constexpr std::size_t kBatch = 4096;
  Service svc({kShards});
  Batch b;
  b.stream = svc.open_stream();
  for (std::size_t lo = 0; lo < events.size(); lo += kBatch) {
    const std::size_t hi = std::min(lo + kBatch, events.size());
    b.events.assign(events.begin() + static_cast<std::ptrdiff_t>(lo),
                    events.begin() + static_cast<std::ptrdiff_t>(hi));
    if (!svc.submit(b).ok()) return false;
    ++b.epoch;
  }
  if (!svc.finish(b.stream).ok()) return false;
  out = svc.report(b.stream).races;
  return true;
}

/// Advances `sp` over the structural events of `b`; returns how many.
inline std::uint64_t sp_apply(StreamSp& sp, const Batch& b) {
  std::uint64_t n = 0;
  for (const Event& e : b.events) {
    switch (e.kind) {
      case EventKind::kFork: sp.on_fork(e.series); break;
      case EventKind::kSwitch: sp.on_switch(); break;
      case EventKind::kJoin: sp.on_join(); break;
      case EventKind::kThreadBegin: sp.on_thread_begin(e.thread); break;
      case EventKind::kThreadEnd:
      case EventKind::kAccess:
        continue;
    }
    ++n;
  }
  return n;
}

/// Trial-validates `b` on a copy of `v` and commits it, as submit() does.
inline bool validate(Validator& v, const Batch& b) {
  Validator trial = v;
  for (const Event& e : b.events)
    if (trial.step(e) != stream::IngestError::kOk) return false;
  v = std::move(trial);
  return true;
}

/// Applies the accesses of `b` (issued by the threads `sp` has seen) to
/// `shadow`, logging each SP query; returns the race count added.
inline std::uint64_t shadow_apply(Shadow& shadow, StreamId s, const Batch& b,
                                  const StreamSp& sp, ThreadId& cur,
                                  std::vector<QueryPair>& pairs) {
  std::uint64_t races = 0;
  const auto serial = [&](ThreadId u, ThreadId v) {
    if (u == kNoThread || u == v) return true;
    pairs.emplace_back(u, v);
    return sp.precedes(u, v);
  };
  for (const Event& e : b.events) {
    if (e.kind == EventKind::kThreadBegin) cur = e.thread;
    if (e.kind != EventKind::kAccess) continue;
    shadow.apply(s, Access{e.loc, e.write, e.locks}, cur, serial, races);
  }
  return races;
}

// ---- sphybrid: the parallel engine ----------------------------------------

enum class HybridMode { kHybrid, kPlain, kSerialReference };

inline ExecResult run_parallel(const Tree& t, unsigned workers,
                               HybridMode mode) {
  spr::hybrid::ExecOptions o;
  o.workers = workers;
  o.mode = mode == HybridMode::kHybrid ? spr::hybrid::Mode::kHybrid
           : mode == HybridMode::kPlain
               ? spr::hybrid::Mode::kPlain
               : spr::hybrid::Mode::kSerialReference;
  o.detect_races = mode != HybridMode::kPlain;
  return spr::hybrid::run_parallel(t, o);
}

}  // namespace spbench::layers
