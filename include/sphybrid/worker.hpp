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
// Mode::kHybrid keeps SP-bags over traces (spbags/trace_bags.hpp) as the
// local tier and one item pair per trace in the global tier's two
// OrderLists (sphybrid/global_tier.hpp). A trace is minted only by a
// steal: the thief takes the OLDEST continuation (deque top) under the
// victim's steal lock and makes exactly 3 global OM insertions inside the
// tier's seqlock write section; every query that reaches the tier reads
// both orders under one validated read, and each worker counts its own
// failed validations. Every other SP-maintenance operation is
// trace-local and lock-free, and every join continuation resumes the
// trace that entered the node (sphybrid/README.md has the rule and its
// proof). Mode::kNaive keeps a per-node SP-order (order::split over two
// OrderLists) under one global mutex around every insertion and every
// query (Section 3's straw man), and Mode::kPlain runs the scheduler with
// no SP maintenance (the T_P baseline).
//
// Counters are measured, not modeled: steals/splits come from the deques,
// om_inserts from the structures that take locked insertions (the item
// counts of kHybrid's global tier and of kNaive's SP-order), lock_wait_ns
// from time spent in locked global sections, and shadow_retries /
// shadow_overflows from each worker's lost shadow-cell CASes and accesses
// sent to the shadow's locked overflow. Since a steal
// mints the only new trace, a run has steals + 1 traces, within Section
// 5's 4*steals + 1.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "om/order_list.hpp"
#include "race/shadow_protocol.hpp"
#include "race/stream/shadow_shards.hpp"
#include "spbags/trace_bags.hpp"
#include "sphybrid/deque.hpp"
#include "sphybrid/global_tier.hpp"
#include "sporder/sp_order.hpp"
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
  std::uint64_t queries = 0;
  std::uint64_t fast_queries = 0;  ///< answered by SP-bags alone
  std::uint64_t om_inserts = 0;    ///< locked global-tier insertions
  /// Time inside the thieves' split sections and kNaive's SP lock.
  std::uint64_t lock_wait_ns = 0;
  std::uint64_t query_retries = 0;  ///< failed global-tier validations
  std::uint64_t repoint_walk = 0;   ///< S-ancestors the splits visited
  std::uint64_t shadow_retries = 0;    ///< failed shadow cell CASes
  std::uint64_t shadow_overflows = 0;  ///< accesses to the locked overflow
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

/// Per-leaf deterministic query stream: calls f(u) for each of the
/// `queries_per_leaf` earlier threads u that thread v asks about, drawn
/// from a generator seeded by (seed, v), so every mode, worker count and
/// serial walk issues the same queries (thread 0 asks none).
template <typename F>
inline void for_each_leaf_query(std::uint64_t seed,
                                std::uint32_t queries_per_leaf,
                                tree::ThreadId v, F&& f) {
  if (queries_per_leaf == 0 || v == 0) return;
  util::Xoshiro256 rng(seed ^ (0x9e3779b97f4a7c15ULL * (std::uint64_t{v} + 1)));
  for (std::uint32_t q = 0; q < queries_per_leaf; ++q)
    f(static_cast<tree::ThreadId>(rng.next_below(v)));
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

/// The multi-worker engine. Construct, call run() once, then (for kNaive)
/// precedes() remains valid for arbitrary post-run queries — the stress
/// tests cross-check it pairwise against the LCA oracle. kHybrid answers
/// only on the fly, where v is running and u is any other thread.
class WorkStealingEngine {
 public:
  WorkStealingEngine(const tree::ParseTree& t, const ExecOptions& o)
      : tree_(t), opts_(o), nworkers_(resolve_workers(o.workers)) {
    if (detecting())
      race::stream::LockFreeDeterminacyShadow::require_thread_ids(
          tree_.leaf_count());
    const std::size_t nn = tree_.node_count();
    pending_ = std::make_unique<std::atomic<std::uint8_t>[]>(nn);
    root_ = std::make_unique<std::atomic<std::uint32_t>[]>(nn);
    for (std::size_t i = 0; i < nn; ++i)
      pending_[i].store(2, std::memory_order_relaxed);
    if (opts_.mode == Mode::kNaive) naive_ = std::make_unique<NaiveSp>(tree_);
    if (opts_.mode == Mode::kHybrid && tree_.root() != tree::kNoNode) {
      bags_ = std::make_unique<bags::TraceBags>(tree_.leaf_count());
      entry_trace_ = std::make_unique<std::atomic<std::uint32_t>[]>(nn);
      // Written once per steal before anyone can read them: no zeroing.
      pairs_ = std::make_unique_for_overwrite<Pair[]>(2 * nn);
      pairs_[static_cast<std::size_t>(tree_.root())] = tier_.root();
      // Parents have larger ids than their children: one downward sweep.
      s_above_ = std::make_unique_for_overwrite<tree::NodeId[]>(nn);
      for (tree::NodeId id = static_cast<tree::NodeId>(nn); id-- > 0;) {
        const tree::NodeId p = tree_.node(id).parent;
        const auto i = static_cast<std::size_t>(id);
        if (p == tree::kNoNode)
          s_above_[i] = tree::kNoNode;
        else if (tree_.node(p).kind == tree::NodeKind::kSeries &&
                 tree_.node(p).right == id)
          s_above_[i] = p;
        else
          s_above_[i] = s_above_[static_cast<std::size_t>(p)];
      }
    }
    workers_.reserve(nworkers_);
    for (unsigned w = 0; w < nworkers_; ++w)
      workers_.push_back(std::make_unique<WorkerCtx>(w, opts_.seed));
    if (detecting())
      shadow_ = std::make_unique<race::stream::LockFreeDeterminacyShadow>(
          tree_.footprint(), nworkers_);
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
      r.repoint_walk += w->repoint_walk;
      r.query_retries += w->query_retries;
      r.shadow_retries += w->shadow.retries;
      r.shadow_overflows += w->shadow.overflows;
      spin ^= w->spin_xor;
      digest += w->digest_sum;
    }
    r.checksum = spin + digest;
    r.race_count = race_count_.load(std::memory_order_relaxed);
    if (naive_ != nullptr) r.om_inserts = naive_->inserts();
    if (bags_ != nullptr) r.om_inserts = tier_.inserts();
    util::do_not_optimize(r.checksum);
    return r;
  }

  /// Post-run structural SP query (kNaive only).
  bool precedes(tree::ThreadId u, tree::ThreadId v) const {
    if (naive_ == nullptr)
      throw std::logic_error("precedes() requires kNaive");
    return naive_->precedes(u, v);
  }

 private:
  using Pair = GlobalTier::Pair;

  /// kNaive's per-node SP-order: serial SP-order's split rule applied to
  /// nodes entered out of English order, so every node keeps its slot.
  /// Every call runs under naive_mu_ (or after the run).
  class NaiveSp {
   public:
    explicit NaiveSp(const tree::ParseTree& t)
        : tree_(t), slots_(t.node_count()) {
      if (t.root() != tree::kNoNode)
        slots_[static_cast<std::size_t>(t.root())] = {eng_.root(),
                                                      heb_.root()};
    }
    void enter_internal(const tree::Node& n) {
      const auto b = order::split(eng_, heb_,
                                  slots_[static_cast<std::size_t>(n.id)],
                                  n.kind == tree::NodeKind::kSeries);
      slots_[static_cast<std::size_t>(n.left)] = b.left;
      slots_[static_cast<std::size_t>(n.right)] = b.right;
    }
    /// Theorem 4. A thread whose parent was never entered has no slot;
    /// it cannot precede the running thread, and it follows nothing yet.
    bool precedes(tree::ThreadId u, tree::ThreadId v) const {
      const order::Slot& a = slot(u);
      const order::Slot& b = slot(v);
      if (u == v || a.eng == nullptr || b.eng == nullptr) return false;
      return eng_.precedes(a.eng, b.eng) && heb_.precedes(a.heb, b.heb);
    }
    /// Locked insertions: every item but the two roots.
    std::uint64_t inserts() const { return eng_.size() + heb_.size() - 2; }

   private:
    const order::Slot& slot(tree::ThreadId t) const {
      return slots_[static_cast<std::size_t>(tree_.leaf(t).id)];
    }

    const tree::ParseTree& tree_;
    om::OrderList eng_;
    om::OrderList heb_;
    std::vector<order::Slot> slots_;
  };

  struct WorkerCtx {
    WorkerCtx(unsigned id_, std::uint64_t seed)
        : id(id_), victim_rng(seed ^ (0xd1342543de82ef95ULL * (id_ + 1))) {}
    unsigned id;
    ChaseLevDeque<tree::NodeId> deque;
    spr::spin_lock steal_lock;  ///< held by a thief around CAS + split
    util::Xoshiro256 victim_rng;
    /// kHybrid: the running trace, named by the node it was minted at
    /// (the stolen node, or the root); its pair is pairs_[cur_trace].
    std::uint32_t cur_trace = 0;
    std::uint64_t steals = 0;
    std::uint64_t splits = 0;
    std::uint64_t queries = 0;
    std::uint64_t fast_queries = 0;  ///< answered by SP-bags alone
    std::uint64_t lock_wait_ns = 0;
    std::uint64_t repoint_walk = 0;
    std::uint64_t query_retries = 0;
    race::stream::LockFreeDeterminacyShadow::Counters shadow;
    std::uint64_t spin_xor = 0;
    std::uint64_t digest_sum = 0;
  };

  bool detecting() const {
    return opts_.detect_races && opts_.mode != Mode::kPlain;
  }

  // ---- per-node walk hooks -------------------------------------------

  void enter_node(WorkerCtx& w, const tree::Node& n) {
    if (naive_ != nullptr) {
      const util::Stopwatch sw;
      std::lock_guard<std::mutex> lock(naive_mu_);
      w.lock_wait_ns += static_cast<std::uint64_t>(sw.elapsed_ns());
      naive_->enter_internal(n);  // Section 3: every OM insertion is locked
    } else if (bags_ != nullptr && n.kind == tree::NodeKind::kParallel) {
      // The join continuation and a thief of n.right both need the trace
      // that entered n; the push of n.right publishes it.
      entry_trace_[static_cast<std::size_t>(n.id)].store(
          w.cur_trace, std::memory_order_relaxed);
    }
  }

  void do_leaf(WorkerCtx& w, const tree::Node& n) {
    const tree::ThreadId v = n.thread;
    w.spin_xor ^= util::spin_work(n.work);
    for_each_leaf_query(opts_.seed, opts_.queries_per_leaf, v,
                        [&](tree::ThreadId u) {
                          if (opts_.mode != Mode::kPlain)
                            w.digest_sum += query_digest(u, v, answer(w, u, v));
                          ++w.queries;
                        });
    if (detecting()) detect(w, v);
  }

  /// On-the-fly query: u any other thread (completed, running, a recorded
  /// accessor or unexecuted), v executing on `w`. kHybrid asks SP-bags,
  /// then the global tier with Theorem 4 over item pairs.
  bool answer(WorkerCtx& w, tree::ThreadId u, tree::ThreadId v) {
    if (naive_ != nullptr) {
      const util::Stopwatch sw;
      std::lock_guard<std::mutex> lock(naive_mu_);
      w.lock_wait_ns += static_cast<std::uint64_t>(sw.elapsed_ns());
      return naive_->precedes(u, v);
    }
    std::uint32_t pair = 0;
    const auto fast = bags_->precedes_fast(u, w.cur_trace, pair);
    if (fast != bags::TraceBags::Answer::kMiss) {
      ++w.fast_queries;
      return fast == bags::TraceBags::Answer::kSerial;
    }
    return tier_.precedes(pairs_[pair], pairs_[w.cur_trace], w.query_retries);
  }

  void detect(WorkerCtx& w, tree::ThreadId v) {
    std::uint64_t local_races = 0;
    const auto serial = race::counted_serial(
        [this, &w](tree::ThreadId u, tree::ThreadId cur) {
          return answer(w, u, cur);
        },
        w.queries);
    // The engine is one program == one stream, and the only shadow user
    // with several threads. Every worker applies each leaf's accesses as
    // one run to one lock-free table of packed cells
    // (race/stream/shadow_shards.hpp), which prefetches them a batch at a
    // time: each access runs the same shadow_apply as every other
    // detector on a copy of its cell and CASes the result back, so no
    // lock word or shared counter is written per access. A lost CAS
    // re-runs the rule on the cell that won: its SP queries count again in
    // w.queries, its races do not. Keys of a full probe window, and
    // loc == ~0, go to the table's locked overflow. The constructor sized
    // the table from the tree's footprint estimate and rejected trees
    // whose thread ids a packed cell cannot hold; worker_main cleared it.
    const std::vector<tree::Access>& as = tree_.accesses(v);
    shadow_->apply_all(as.data(), as.size(), v, serial, local_races,
                       w.shadow);
    if (local_races > 0)
      race_count_.fetch_add(local_races, std::memory_order_relaxed);
  }

  // ---- completion chain ----------------------------------------------

  std::uint32_t root_of(tree::NodeId n) const {
    return root_[static_cast<std::size_t>(n)].load(std::memory_order_relaxed);
  }

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
      const bool series = pn.kind == tree::NodeKind::kSeries;
      if (series && !from_left) {
        if (bags_ != nullptr) carry = bags_->unite(root_of(pn.left), carry);
        c = p;
        continue;
      }
      root_[static_cast<std::size_t>(c)].store(carry,
                                               std::memory_order_relaxed);
      if (from_left) {
        // between_children: the left subtree precedes the rest (S) or
        // runs beside it (P).
        if (bags_ != nullptr)
          bags_->classify(carry, series, w.cur_trace, w.cur_trace);
        if (series) return pn.right;  // continue serially, same trace
      }
      // P-node join: the acq_rel RMW orders the two sides' root stores
      // for whoever continues.
      if (pending_[pi].fetch_sub(1, std::memory_order_acq_rel) == 2)
        return tree::kNoNode;  // other side still running
      if (bags_ != nullptr) {
        carry = bags_->unite(root_of(pn.left), root_of(pn.right));
        w.cur_trace = entry_trace_[pi].load(std::memory_order_relaxed);
      }
      c = p;
    }
  }

  /// Executes the region reachable from `start` without stealing:
  /// descend / leaf / complete, then drain the local deque. A pop after
  /// an abandoned join returns that join's right child, which resumes
  /// the trace that entered the join: the one this worker already runs.
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
      cur = complete(w, cur, leaf.thread);
      if (cur != tree::kNoNode) continue;
      if (!w.deque.pop_bottom(cur)) return;
    }
  }

  /// kHybrid's split, run by the thief of `stolen` = X.right under the
  /// victim's steal lock: the thief's trace (named `stolen`) gets its
  /// own English item right after the victim trace's, and a Hebrew item
  /// right before it, behind a fresh `pre` item. The S-sets at X's
  /// ancestors that still carry the victim's pair move to (victim
  /// English, pre). 3 global inserts.
  void split(WorkerCtx& w, tree::NodeId stolen) {
    const util::Stopwatch sw;
    const tree::NodeId x = tree_.node(stolen).parent;
    const std::size_t xi = static_cast<std::size_t>(x);
    const std::uint32_t victim =
        entry_trace_[xi].load(std::memory_order_relaxed);
    const GlobalTier::Split s = tier_.split(pairs_[victim]);
    const auto thief = static_cast<std::uint32_t>(stolen);
    const auto repointed =
        static_cast<std::uint32_t>(tree_.node_count() + xi);
    pairs_[static_cast<std::size_t>(stolen)] = s.thief;
    pairs_[repointed] = s.repointed;
    // Re-point the S-sets above X that still carry the victim's pair.
    // They are the lowest ones on X's chain of S-ancestors that X lies
    // right of, so the walk stops at the first set that does not.
    for (tree::NodeId z = s_above_[xi]; z != tree::kNoNode;
         z = s_above_[static_cast<std::size_t>(z)]) {
      ++w.repoint_walk;
      if (!bags_->repoint(root_of(tree_.node(z).left), victim, repointed))
        break;
    }
    w.cur_trace = thief;
    w.lock_wait_ns += static_cast<std::uint64_t>(sw.elapsed_ns());
    ++w.splits;
  }

  void worker_main(WorkerCtx& w, tree::NodeId initial) {
    // Each worker clears its stripe of the shadow; none runs a leaf
    // before all have.
    if (shadow_ != nullptr) shadow_->start(w.id);
    if (initial != tree::kNoNode) {
      w.cur_trace = static_cast<std::uint32_t>(initial);
      run_region(w, initial);
    }
    if (nworkers_ == 1) return;
    while (!done_.load(std::memory_order_acquire)) {
      tree::NodeId task = tree::kNoNode;
      for (unsigned tries = 0; tries < nworkers_; ++tries) {
        const auto vi = static_cast<unsigned>(
            w.victim_rng.next_below(nworkers_));
        if (vi == w.id) continue;
        WorkerCtx& victim = *workers_[vi];
        const bool got =
            bags_ != nullptr
                ? locked_steal(victim.steal_lock, victim.deque, task,
                               [this, &w](tree::NodeId t) { split(w, t); })
                : victim.deque.steal(task) ==
                      ChaseLevDeque<tree::NodeId>::StealResult::kStolen;
        if (got) break;
        task = tree::kNoNode;
      }
      if (task == tree::kNoNode) {
        std::this_thread::yield();
        continue;
      }
      ++w.steals;
      run_region(w, task);
    }
  }

  const tree::ParseTree& tree_;
  const ExecOptions opts_;
  const unsigned nworkers_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> pending_;
  /// Per node, the DSU root of its completed subtree, stored by the
  /// worker that completes it before the parent's join RMW.
  std::unique_ptr<std::atomic<std::uint32_t>[]> root_;
  // kHybrid only: per P-node, the trace that entered it; per node, its
  // nearest S-ancestor that it lies right of; pairs_[mint node] is a
  // trace's pair and pairs_[node_count + X] the pair a steal at X
  // re-pointed S-sets to.
  std::unique_ptr<bags::TraceBags> bags_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> entry_trace_;
  std::unique_ptr<tree::NodeId[]> s_above_;
  std::unique_ptr<Pair[]> pairs_;
  GlobalTier tier_;
  std::unique_ptr<NaiveSp> naive_;  ///< kNaive
  std::mutex naive_mu_;             ///< kNaive's global SP lock
  std::vector<std::unique_ptr<WorkerCtx>> workers_;
  /// Sized once, before the run, when this mode detects races; cleared
  /// by the workers as the run starts.
  std::unique_ptr<race::stream::LockFreeDeterminacyShadow> shadow_;
  std::atomic<std::uint64_t> race_count_{0};
  std::atomic<bool> done_{false};
};

}  // namespace spr::hybrid
