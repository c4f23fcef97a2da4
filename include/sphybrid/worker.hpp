#pragma once
// Work-stealing SP-hybrid engine (Sections 3-6, Theorem 10). Every worker
// owns a Chase-Lev deque of pending fork continuations over the binary SP
// parse tree:
//  - entering a P-node pushes the right child (the continuation) and
//    descends into the left child;
//  - entering an S-node just descends (the right child runs through the
//    completion chain);
//  - a completed subtree walks up through its parent: S-nodes continue
//    serially, P-nodes join on an atomic counter, and the LAST side to
//    finish continues past the join (the first abandons and goes back to
//    pop/steal).
// A successful steal takes the OLDEST continuation (deque top), performs
// the two-tier segment split (3 global OM insertions), and starts a new
// trace; every other SP-maintenance operation is trace-local. Mode::kNaive
// runs the same TwoTierSp with no fast tier and no splits, taking one
// global mutex around every insertion and every query (Section 3's straw
// man), and Mode::kPlain runs the scheduler with no SP maintenance (the
// T_P baseline).
//
// Counters are measured, not modeled: steals/splits come from the deques,
// om_inserts from the structures that take locked insertions (kHybrid's
// segment counts, kNaive's item counts), lock_wait_ns from time
// spent in locked global sections, and `traces` from the trace ids the
// engine minted, which Section 5 bounds by 4*steals + 1.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "race/shadow_protocol.hpp"
#include "race/stream/shadow_shards.hpp"
#include "spbags/trace_bags.hpp"
#include "sphybrid/deque.hpp"
#include "sphybrid/two_tier_sp.hpp"
#include "sptree/sp_maintenance.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"

namespace spr::hybrid {

enum class Mode : std::uint8_t {
  kPlain,   ///< no SP maintenance: the T_P baseline
  kNaive,   ///< one shared OM structure, every insertion locked
  kHybrid,  ///< SP-hybrid: locked insertions only on steals
  kSerialReference,  ///< serial oracle: full SP-order on the calling thread
};

struct ExecOptions {
  unsigned workers = 1;
  Mode mode = Mode::kPlain;
  std::uint32_t queries_per_leaf = 0;
  std::uint64_t seed = 1;
  bool detect_races = false;
};

struct ExecResult {
  double elapsed_s = 0;
  unsigned workers_used = 1;
  std::uint64_t steals = 0;
  std::uint64_t splits = 0;        ///< steals that split a trace
  std::uint64_t traces = 1;        ///< traces started; <= 4*steals + 1
  std::uint64_t queries = 0;
  std::uint64_t fast_queries = 0;  ///< answered by the SP-bags local tier
  std::uint64_t om_inserts = 0;    ///< locked global-tier insertions
  /// Time inside locked global-tier sections (and kNaive's SP lock);
  /// shadow shard-lock waits are not counted.
  std::uint64_t lock_wait_ns = 0;
  std::uint64_t query_retries = 0;  ///< failed lock-free query attempts
  std::uint64_t race_count = 0;
  std::uint64_t checksum = 0;
  bool has_race() const { return race_count > 0; }
};

/// Validates and resolves ExecOptions::workers: 0 is rejected; requests
/// are clamped to hardware_concurrency (with a floor of 4 so the
/// concurrent code paths stay exercised on 1-2 core CI hosts).
inline unsigned resolve_workers(unsigned requested) {
  if (requested == 0)
    throw std::invalid_argument("ExecOptions::workers must be >= 1");
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return requested < std::max(4u, hw) ? requested : std::max(4u, hw);
}

/// Per-leaf deterministic query stream: the same (seed, thread) pair
/// issues the same queries in every mode and at every worker count.
inline util::Xoshiro256 leaf_query_rng(std::uint64_t seed,
                                       tree::ThreadId thread) {
  return util::Xoshiro256(seed ^
                          (0x9e3779b97f4a7c15ULL * (std::uint64_t{thread} + 1)));
}

/// Order-independent digest of one answered query; summed into the run
/// checksum so any single flipped SP answer changes the total.
inline std::uint64_t query_digest(tree::ThreadId u, tree::ThreadId v,
                                  bool ans) {
  std::uint64_t z = (std::uint64_t{u} << 33) ^ (std::uint64_t{v} << 1) ^
                    (ans ? 0x9e3779b97f4a7c15ULL : 0x2545f4914f6cdd1dULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The multi-worker engine. Construct, call run() once, then (for kNaive
/// and kHybrid) precedes() remains valid for arbitrary post-run queries —
/// the stress tests cross-check it pairwise against the LCA oracle.
class WorkStealingEngine {
 public:
  WorkStealingEngine(const tree::ParseTree& t, const ExecOptions& o)
      : tree_(t), opts_(o), nworkers_(resolve_workers(o.workers)) {
    const std::size_t nn = tree_.node_count();
    pending_ = std::make_unique<std::atomic<std::uint8_t>[]>(nn);
    stolen_ = std::make_unique<std::atomic<std::uint8_t>[]>(nn);
    left_root_ = std::make_unique<std::atomic<std::uint32_t>[]>(nn);
    right_root_ = std::make_unique<std::atomic<std::uint32_t>[]>(nn);
    for (std::size_t i = 0; i < nn; ++i) {
      pending_[i].store(2, std::memory_order_relaxed);
      stolen_[i].store(0, std::memory_order_relaxed);
    }
    if (opts_.mode == Mode::kHybrid || opts_.mode == Mode::kNaive)
      sp_ = std::make_unique<TwoTierSp>(tree_);
    if (opts_.mode == Mode::kHybrid)
      bags_ = std::make_unique<bags::TraceBags>(tree_.leaf_count());
    workers_.reserve(nworkers_);
    for (unsigned w = 0; w < nworkers_; ++w)
      workers_.push_back(std::make_unique<WorkerCtx>(w, opts_.seed));
  }

  ExecResult run() {
    ExecResult r;
    r.workers_used = nworkers_;
    const util::Stopwatch sw;
    if (tree_.root() != tree::kNoNode) {
      if (nworkers_ == 1) {
        worker_main(*workers_[0], tree_.root());
      } else {
        std::vector<std::thread> threads;
        threads.reserve(nworkers_ - 1);
        for (unsigned w = 1; w < nworkers_; ++w)
          threads.emplace_back(
              [this, w] { worker_main(*workers_[w], tree::kNoNode); });
        worker_main(*workers_[0], tree_.root());
        for (auto& th : threads) th.join();
      }
    }
    r.elapsed_s = sw.elapsed_s();
    // Order-independent checksum: XOR of leaf spin work folded with the
    // summed query digests (both commutative across schedules, so every
    // mode and worker count produces the same value for the same program).
    std::uint64_t spin = 0, digest = 0;
    for (const auto& w : workers_) {
      r.steals += w->steals;
      r.splits += w->splits;
      r.queries += w->queries;
      r.fast_queries += w->fast_queries;
      r.lock_wait_ns += w->lock_wait_ns;
      spin ^= w->spin_xor;
      digest += w->digest_sum;
    }
    r.checksum = spin + digest;
    r.traces = next_trace_.load(std::memory_order_relaxed);
    r.race_count = race_count_.load(std::memory_order_relaxed);
    if (sp_ != nullptr) {
      // kNaive never splits: its locked insertions are every item but the
      // two roots.
      r.om_inserts = opts_.mode == Mode::kNaive ? sp_->items() - 2
                                                : sp_->global_inserts();
      r.query_retries = sp_->query_retries();
    }
    util::do_not_optimize(r.checksum);
    return r;
  }

  /// Post-run structural SP query (kHybrid / kNaive only).
  bool precedes(tree::ThreadId u, tree::ThreadId v) const {
    if (sp_ == nullptr)
      throw std::logic_error("precedes() requires kHybrid or kNaive");
    return sp_->precedes(u, v);
  }

 private:
  struct WorkerCtx {
    WorkerCtx(unsigned id_, std::uint64_t seed)
        : id(id_), victim_rng(seed ^ (0xd1342543de82ef95ULL * (id_ + 1))) {}
    unsigned id;
    ChaseLevDeque<tree::NodeId> deque;
    util::Xoshiro256 victim_rng;
    std::uint32_t cur_trace = bags::kNoTrace;
    tree::NodeId last_abandoned = tree::kNoNode;
    std::uint64_t steals = 0;
    std::uint64_t splits = 0;
    std::uint64_t queries = 0;
    std::uint64_t fast_queries = 0;  ///< answered by the SP-bags local tier
    std::uint64_t lock_wait_ns = 0;
    std::uint64_t spin_xor = 0;
    std::uint64_t digest_sum = 0;
  };

  std::uint32_t mint_trace() {
    return next_trace_.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- per-node walk hooks -------------------------------------------

  void enter_node(WorkerCtx& w, const tree::Node& n) {
    if (opts_.mode == Mode::kNaive) {
      const util::Stopwatch sw;
      std::lock_guard<std::mutex> lock(naive_mu_);
      w.lock_wait_ns += static_cast<std::uint64_t>(sw.elapsed_ns());
      sp_->enter_internal(n);  // Section 3: every OM insertion is locked
    } else if (sp_ != nullptr) {
      sp_->enter_internal(n);
    }
  }

  void do_leaf(WorkerCtx& w, const tree::Node& n) {
    const tree::ThreadId v = n.thread;
    if (bags_ != nullptr) bags_->on_leaf(v, w.cur_trace);
    w.spin_xor ^= util::spin_work(n.work);
    if (opts_.queries_per_leaf > 0) {
      util::Xoshiro256 rng = leaf_query_rng(opts_.seed, v);
      for (std::uint32_t q = 0; q < opts_.queries_per_leaf && v > 0; ++q) {
        const auto u = static_cast<tree::ThreadId>(rng.next_below(v));
        if (opts_.mode != Mode::kPlain)
          w.digest_sum += query_digest(u, v, answer(w, u, v));
        ++w.queries;
      }
    }
    if (opts_.detect_races && opts_.mode != Mode::kPlain) detect(w, v);
  }

  /// On-the-fly query: u completed (or a recorded accessor), v executing
  /// on `w`. kHybrid tries the same-trace SP-bags tier first.
  bool answer(WorkerCtx& w, tree::ThreadId u, tree::ThreadId v) {
    if (opts_.mode == Mode::kNaive) {
      const util::Stopwatch sw;
      std::lock_guard<std::mutex> lock(naive_mu_);
      w.lock_wait_ns += static_cast<std::uint64_t>(sw.elapsed_ns());
      return sp_->precedes(u, v);
    }
    const bags::TraceBags::Answer fast = bags_->precedes_fast(u, v);
    if (fast == bags::TraceBags::Answer::kMiss) return sp_->precedes(u, v);
    ++w.fast_queries;
    return fast == bags::TraceBags::Answer::kSerial;
  }

  void detect(WorkerCtx& w, tree::ThreadId v) {
    std::uint64_t local_races = 0;
    const auto serial = race::counted_serial(
        [this, &w](tree::ThreadId u, tree::ThreadId cur) {
          return answer(w, u, cur);
        },
        w.queries);
    // The engine is one program == one stream, and the only shadow user
    // with several threads: each shard is the one-owner SoA shadow the
    // serial detectors and service streams use, behind a spin lock. Every
    // worker applies its leaves' accesses one at a time to the one
    // shared shadow, so the shard count is 64 per worker (64 at P=1, 256
    // at P=4): the chance that two workers' accesses collide on a shard
    // stays flat as P grows. Stream 0's cell hash is the shard hash, so
    // the shard takes its high bits and the table slot its low bits;
    // shared bits would start every probe in 1/S of each shard's table
    // (see shadow_shards.hpp). Shard-lock waits are not in lock_wait_ns,
    // which times only the global-tier sections.
    for (const tree::Access& a : tree_.accesses(v))
      shadow_.apply(/*stream=*/0, a, v, serial, local_races);
    if (local_races > 0)
      race_count_.fetch_add(local_races, std::memory_order_relaxed);
  }

  // ---- completion chain ----------------------------------------------

  /// Walks a completed subtree up; returns the next node this worker
  /// should execute, or kNoNode when it abandoned at a lost join (or
  /// finished the root). `carry` is the completed subtree's DSU root.
  tree::NodeId complete(WorkerCtx& w, tree::NodeId c, std::uint32_t carry) {
    for (;;) {
      const tree::Node& cn = tree_.node(c);
      const tree::NodeId p = cn.parent;
      if (p == tree::kNoNode) {
        done_.store(true, std::memory_order_release);
        return tree::kNoNode;
      }
      const tree::Node& pn = tree_.node(p);
      const std::size_t pi = static_cast<std::size_t>(p);
      const bool from_left = pn.left == c;
      if (from_left) {
        left_root_[pi].store(carry, std::memory_order_relaxed);
        if (pn.kind == tree::NodeKind::kSeries) {
          // between_children(S): the left subtree precedes the rest.
          if (bags_ != nullptr) bags_->classify(carry, /*serial=*/true);
          return pn.right;  // continue serially, same trace
        }
        if (bags_ != nullptr) bags_->classify(carry, /*serial=*/false);
      } else {
        if (pn.kind == tree::NodeKind::kSeries) {
          if (bags_ != nullptr)
            carry = bags_->unite(
                left_root_[pi].load(std::memory_order_relaxed), carry);
          c = p;
          continue;
        }
        right_root_[pi].store(carry, std::memory_order_relaxed);
      }
      // P-node join: the acq_rel RMW orders the two sides' root stores
      // and the thief's stolen_ flag for whoever continues.
      if (pending_[pi].fetch_sub(1, std::memory_order_acq_rel) == 2) {
        w.last_abandoned = p;
        return tree::kNoNode;  // other side still running
      }
      if (bags_ != nullptr)
        carry = bags_->unite(left_root_[pi].load(std::memory_order_relaxed),
                           right_root_[pi].load(std::memory_order_relaxed));
      if (stolen_[pi].load(std::memory_order_relaxed) != 0) {
        // Continuing past a stolen join starts a new execution trace
        // (the continuation is not English-contiguous for the victim).
        w.cur_trace = mint_trace();
      }
      c = p;
    }
  }

  /// Executes the region reachable from `start` without stealing:
  /// descend / leaf / complete, then drain the local deque.
  void run_region(WorkerCtx& w, tree::NodeId start) {
    tree::NodeId cur = start;
    for (;;) {
      // Descend to the leftmost leaf, pushing P continuations.
      for (;;) {
        const tree::Node& n = tree_.node(cur);
        if (n.kind == tree::NodeKind::kLeaf) break;
        enter_node(w, n);
        if (n.kind == tree::NodeKind::kParallel)
          w.deque.push_bottom(n.right);
        cur = n.left;
      }
      const tree::Node& leaf = tree_.node(cur);
      do_leaf(w, leaf);
      w.last_abandoned = tree::kNoNode;
      cur = complete(w, cur, leaf.thread);
      if (cur != tree::kNoNode) continue;
      tree::NodeId popped;
      if (!w.deque.pop_bottom(popped)) return;
      // A popped continuation is English-contiguous (same trace) only in
      // the common case where it belongs to the join just abandoned.
      if (tree_.node(popped).parent != w.last_abandoned)
        w.cur_trace = mint_trace();
      cur = popped;
    }
  }

  void worker_main(WorkerCtx& w, tree::NodeId initial) {
    if (initial != tree::kNoNode) {
      w.cur_trace = mint_trace();
      run_region(w, initial);
    }
    if (nworkers_ == 1) return;
    while (!done_.load(std::memory_order_acquire)) {
      tree::NodeId task = tree::kNoNode;
      for (unsigned tries = 0; tries < nworkers_; ++tries) {
        const auto vi = static_cast<unsigned>(
            w.victim_rng.next_below(nworkers_));
        if (vi == w.id) continue;
        const auto res = workers_[vi]->deque.steal(task);
        if (res == ChaseLevDeque<tree::NodeId>::StealResult::kStolen) break;
        task = tree::kNoNode;
      }
      if (task == tree::kNoNode) {
        std::this_thread::yield();
        continue;
      }
      ++w.steals;
      const std::size_t pi = static_cast<std::size_t>(tree_.node(task).parent);
      stolen_[pi].store(1, std::memory_order_relaxed);
      if (opts_.mode == Mode::kHybrid) {
        // The only global-tier work in the whole hybrid scheme.
        const util::Stopwatch sw;
        sp_->steal_split(task);
        w.lock_wait_ns += static_cast<std::uint64_t>(sw.elapsed_ns());
        ++w.splits;
      }
      w.cur_trace = mint_trace();
      run_region(w, task);
    }
  }

  static constexpr std::uint32_t kShardsPerWorker = 64;

  const tree::ParseTree& tree_;
  const ExecOptions opts_;
  const unsigned nworkers_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> pending_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> stolen_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> left_root_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> right_root_;
  std::unique_ptr<TwoTierSp> sp_;        ///< kHybrid and kNaive
  std::unique_ptr<bags::TraceBags> bags_;  ///< kHybrid's fast tier
  std::mutex naive_mu_;                    ///< kNaive's global SP lock
  std::vector<std::unique_ptr<WorkerCtx>> workers_;
  race::stream::DeterminacyShadow shadow_{kShardsPerWorker * nworkers_};
  std::atomic<std::uint64_t> race_count_{0};
  std::atomic<std::uint32_t> next_trace_{0};
  std::atomic<bool> done_{false};
};

}  // namespace spr::hybrid
