#pragma once
// Fork-join program IR and the workload generators shared by benches and
// property tests. A program is an n-ary series/parallel tree whose leaves
// are threads carrying spin-work and an optional memory-access trace;
// lower_to_parse_tree (fjprog/lower.hpp) binarizes it into the SP parse
// tree the maintenance algorithms consume.
//
// All generators are deterministic: the same arguments (and seed, where
// one exists) produce the identical program, which the oracle-based
// property tests rely on.

#include <cstdint>
#include <utility>
#include <vector>

#include "sptree/sp_maintenance.hpp"
#include "util/rng.hpp"

namespace spr::fj {

enum class FjKind : std::uint8_t { kLeaf, kSeq, kPar };

struct FjNode {
  FjKind kind = FjKind::kLeaf;
  std::uint64_t work = 0;                ///< leaves: spin iterations
  std::vector<tree::Access> accesses;    ///< leaves: memory trace
  std::vector<FjNode> children;          ///< kSeq / kPar
};

struct FjProg {
  FjNode root;
};

inline FjNode leaf(std::uint64_t work = 0) {
  FjNode n;
  n.kind = FjKind::kLeaf;
  n.work = work;
  return n;
}

inline FjNode seq(std::vector<FjNode> children) {
  FjNode n;
  n.kind = FjKind::kSeq;
  n.children = std::move(children);
  return n;
}

inline FjNode par(std::vector<FjNode> children) {
  FjNode n;
  n.kind = FjKind::kPar;
  n.children = std::move(children);
  return n;
}

/// Appends a memory access to a leaf's trace (public: tests hand-build
/// tiny racy/clean programs with it).
inline void add_access(FjNode& l, std::uint64_t loc, bool write,
                       std::uint64_t locks = 0) {
  l.accesses.push_back({loc, write, locks});
}

namespace detail {

inline FjNode* first_leaf(FjNode& n) {
  if (n.kind == FjKind::kLeaf) return &n;
  return first_leaf(n.children.front());
}

inline FjNode* last_leaf(FjNode& n) {
  if (n.kind == FjKind::kLeaf) return &n;
  return last_leaf(n.children.back());
}

/// Injects a pair of parallel writes to a sentinel location into the
/// first and last leaf of `root` — a guaranteed determinacy/data race
/// whenever those leaves are parallel (true for every kernel below, whose
/// top level is a parallel composition). Degenerate shapes where first
/// and last leaf coincide (n <= grain: a single leaf, no parallelism)
/// cannot race; callers wanting a racy program must pass n > grain.
inline void inject_write_write_race(FjNode& root, std::uint64_t loc) {
  add_access(*first_leaf(root), loc, true);
  add_access(*last_leaf(root), loc, true);
}

}  // namespace detail

/// fib(n): the canonical recursive benchmark — fib(n-1) and fib(n-2) in
/// parallel, then an addition thread in series. Balanced-ish recursion,
/// nesting depth Theta(n) = Theta(lg f).
inline FjNode fib_node(std::uint32_t n, std::uint64_t work) {
  if (n < 2) return leaf(work);
  std::vector<FjNode> branches;
  branches.push_back(fib_node(n - 1, work));
  branches.push_back(fib_node(n - 2, work));
  std::vector<FjNode> steps;
  steps.push_back(par(std::move(branches)));
  steps.push_back(leaf(work));
  return seq(std::move(steps));
}

inline FjProg make_fib(std::uint32_t n, std::uint64_t work = 1) {
  return {fib_node(n, work)};
}

/// Full binary spawn tree of the given depth: 2^depth threads, nesting
/// depth = depth.
inline FjNode balanced_node(std::uint32_t depth, std::uint64_t work) {
  if (depth == 0) return leaf(work);
  std::vector<FjNode> branches;
  branches.push_back(balanced_node(depth - 1, work));
  branches.push_back(balanced_node(depth - 1, work));
  return par(std::move(branches));
}

inline FjProg make_balanced(std::uint32_t depth, std::uint64_t work = 1) {
  return {balanced_node(depth, work)};
}

/// One sync block spawning n threads: after binarization the P-chain has
/// nesting depth n, the adversarial case for depth-bounded labelings
/// (d = f, so offset-span labels explode alongside english-hebrew).
inline FjProg make_loop_spawn(std::uint32_t n, std::uint64_t work = 1) {
  std::vector<FjNode> threads;
  threads.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) threads.push_back(leaf(work));
  return {par(std::move(threads))};
}

/// Spawning loop that syncs every k iterations: a series chain of n/k
/// parallel blocks of k threads each (d = k).
inline FjProg make_loop_sync(std::uint32_t n, std::uint32_t k,
                             std::uint64_t work = 1) {
  if (k == 0) k = 1;
  std::vector<FjNode> blocks;
  for (std::uint32_t done = 0; done < n; done += k) {
    const std::uint32_t cnt = done + k <= n ? k : n - done;
    std::vector<FjNode> threads;
    threads.reserve(cnt);
    for (std::uint32_t i = 0; i < cnt; ++i) threads.push_back(leaf(work));
    blocks.push_back(par(std::move(threads)));
  }
  if (blocks.empty()) blocks.push_back(leaf(work));
  return {seq(std::move(blocks))};
}

namespace detail {

inline FjNode random_node(util::Xoshiro256& rng, std::uint32_t leaves,
                          std::uint64_t max_work) {
  if (leaves <= 1) return leaf(rng.next_below(max_work + 1));
  // Uniform split keeps the expected nesting depth logarithmic.
  const std::uint32_t left =
      1 + static_cast<std::uint32_t>(rng.next_below(leaves - 1));
  std::vector<FjNode> children;
  children.push_back(random_node(rng, left, max_work));
  children.push_back(random_node(rng, leaves - left, max_work));
  return rng.next_bool() ? par(std::move(children))
                         : seq(std::move(children));
}

}  // namespace detail

/// Random series-parallel program with approximately `leaves` threads;
/// identical (seed, leaves) arguments reproduce the identical program.
inline FjProg make_random_program(std::uint64_t seed, std::uint32_t leaves,
                                  std::uint64_t max_work = 4) {
  util::Xoshiro256 rng(seed);
  return {detail::random_node(rng, leaves == 0 ? 1 : leaves, max_work)};
}

namespace detail {

inline FjNode dnc_fill_node(std::uint64_t lo, std::uint64_t hi,
                            std::uint32_t grain) {
  if (hi - lo <= grain) {
    FjNode l = leaf(hi - lo);
    for (std::uint64_t i = lo; i < hi; ++i) add_access(l, i, true);
    return l;
  }
  const std::uint64_t mid = lo + (hi - lo) / 2;
  std::vector<FjNode> halves;
  halves.push_back(dnc_fill_node(lo, mid, grain));
  halves.push_back(dnc_fill_node(mid, hi, grain));
  return par(std::move(halves));
}

}  // namespace detail

/// Divide-and-conquer array fill: each leaf writes a disjoint chunk of
/// [0, n). Race-free by construction; `inject_race` adds a parallel
/// write-write conflict on a sentinel location (requires n > grain —
/// a single-leaf program has no parallelism to race in).
inline FjProg make_dnc_fill(std::uint64_t n, std::uint32_t grain,
                            bool inject_race = false) {
  if (grain == 0) grain = 1;
  FjNode root = detail::dnc_fill_node(0, n == 0 ? 1 : n, grain);
  if (inject_race) detail::inject_write_write_race(root, n + 1);
  return {std::move(root)};
}

namespace detail {

inline FjNode reduce_node(std::uint64_t lo, std::uint64_t hi,
                          std::uint32_t grain, std::uint64_t n,
                          std::uint64_t& next_partial,
                          std::uint64_t& my_partial) {
  my_partial = n + next_partial++;
  if (hi - lo <= grain) {
    FjNode l = leaf(hi - lo);
    for (std::uint64_t i = lo; i < hi; ++i) add_access(l, i, false);
    add_access(l, my_partial, true);
    return l;
  }
  const std::uint64_t mid = lo + (hi - lo) / 2;
  std::uint64_t p_left = 0, p_right = 0;
  std::vector<FjNode> halves;
  halves.push_back(reduce_node(lo, mid, grain, n, next_partial, p_left));
  halves.push_back(reduce_node(mid, hi, grain, n, next_partial, p_right));
  // Combiner thread: reads both children's partials after the join,
  // writes its own — serialized by the S-node, hence race-free.
  FjNode combine = leaf(2);
  add_access(combine, p_left, false);
  add_access(combine, p_right, false);
  add_access(combine, my_partial, true);
  std::vector<FjNode> steps;
  steps.push_back(par(std::move(halves)));
  steps.push_back(std::move(combine));
  return seq(std::move(steps));
}

}  // namespace detail

/// Parallel reduction over [0, n): leaves read disjoint input chunks and
/// write private partials; combiner threads fold partials after each
/// join. Race-free; `inject_race` adds a parallel write-write conflict.
inline FjProg make_reduce_sum(std::uint64_t n, std::uint32_t grain,
                              bool inject_race = false) {
  if (grain == 0) grain = 1;
  std::uint64_t next_partial = 0, root_partial = 0;
  FjNode root = detail::reduce_node(0, n == 0 ? 1 : n, grain, n == 0 ? 1 : n,
                                    next_partial, root_partial);
  // The root is seq(par(left, right), combiner); the last leaf overall is
  // the combiner, which is *serial* after everything, so inject into the
  // two parallel halves instead.
  if (inject_race && root.kind == FjKind::kSeq)
    detail::inject_write_write_race(root.children[0], n + next_partial + 1);
  return {std::move(root)};
}

/// Two-phase 1-D stencil: phase 1 reads array A (locs [0, n)) and writes
/// array B (locs [n, 2n)) in parallel chunks, a sync, then phase 2 reads
/// B and writes A. Neighbor reads overlap chunk boundaries, which is
/// read-read sharing only — race-free. `inject_race` makes two parallel
/// phase-1 chunks write the same B cell (requires n > grain, i.e. at
/// least two chunks; with a single chunk no race is injected).
inline FjProg make_stencil(std::uint64_t n, std::uint32_t grain,
                           bool inject_race = false) {
  if (grain == 0) grain = 1;
  if (n == 0) n = 1;
  const auto phase = [&](bool a_to_b) {
    std::vector<FjNode> chunks;
    for (std::uint64_t lo = 0; lo < n; lo += grain) {
      const std::uint64_t hi = lo + grain < n ? lo + grain : n;
      FjNode l = leaf(hi - lo);
      for (std::uint64_t i = lo; i < hi; ++i) {
        const std::uint64_t src = a_to_b ? 0 : n;
        const std::uint64_t dst = a_to_b ? n : 0;
        if (i > 0) add_access(l, src + i - 1, false);
        add_access(l, src + i, false);
        if (i + 1 < n) add_access(l, src + i + 1, false);
        add_access(l, dst + i, true);
      }
      chunks.push_back(std::move(l));
    }
    return par(std::move(chunks));
  };
  FjNode p1 = phase(true);
  if (inject_race && p1.children.size() >= 2) {
    // Two parallel chunks of phase 1 write the same B cell.
    add_access(p1.children.front(), n, true);
    add_access(p1.children.back(), n, true);
  }
  std::vector<FjNode> phases;
  phases.push_back(std::move(p1));
  phases.push_back(phase(false));
  return {seq(std::move(phases))};
}

namespace detail {

/// A balanced binary tree of pars over children [lo, hi), in order.
inline FjNode balanced_par(std::vector<FjNode>& children, std::size_t lo,
                           std::size_t hi) {
  if (hi - lo == 1) return std::move(children[lo]);
  const std::size_t mid = lo + (hi - lo) / 2;
  std::vector<FjNode> halves;
  halves.push_back(balanced_par(children, lo, mid));
  halves.push_back(balanced_par(children, mid, hi));
  return par(std::move(halves));
}

inline void balance_parallel(FjNode& n) {
  for (FjNode& c : n.children) balance_parallel(c);
  if (n.kind == FjKind::kPar && n.children.size() > 2)
    n = balanced_par(n.children, 0, n.children.size());
}

}  // namespace detail

/// `prog` with the children of every parallel composition regrouped into
/// a balanced binary tree of pars, the shape a cilk_for lowers to: the
/// same threads in the same English order, so the same races, but a
/// span that grows with the log of a loop's length instead of with it
/// (lowering binarizes an n-ary par into a right-deep chain).
inline FjProg balance_parallel(FjProg prog) {
  detail::balance_parallel(prog.root);
  return prog;
}

/// Parallel accumulation into one shared cell. With `use_lock` every
/// access holds lock #1: still a determinacy race (nondeterministic
/// order), but not a data race — the verdict contrast the ALL-SETS bench
/// draws. Without the lock it is both.
inline FjProg make_locked_accumulator(std::uint64_t n, std::uint32_t grain,
                                      bool use_lock = true) {
  if (grain == 0) grain = 1;
  if (n == 0) n = 1;
  const std::uint64_t lockset = use_lock ? 1 : 0;
  std::vector<FjNode> chunks;
  for (std::uint64_t lo = 0; lo < n; lo += grain) {
    const std::uint64_t hi = lo + grain < n ? lo + grain : n;
    FjNode l = leaf(hi - lo);
    for (std::uint64_t i = lo; i < hi; ++i) {
      add_access(l, 0, false, lockset);
      add_access(l, 0, true, lockset);
    }
    chunks.push_back(std::move(l));
  }
  return {par(std::move(chunks))};
}

}  // namespace spr::fj
