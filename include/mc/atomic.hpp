#pragma once
// spr::mc instrumented atomics: drop-in replacements for std::atomic and
// std::mutex that (a) turn every access into a
// scheduling point of the cooperative scheduler (mc/sched.hpp) and
// (b) model weak-memory STALENESS with a per-location store history +
// vector clocks, in the spirit of relacy:
//
//  - Every store appends to the location's modification order, tagged
//    with the writer's (thread, clock) and — for release stores — a
//    snapshot of the writer's vector clock.
//  - A load may observe any store in the kept history that coherence
//    and happens-before admit: not older than the newest store that
//    happens-before the loading thread, nor older than anything this
//    thread already observed at this location. When several stores are
//    admissible the choice is a VALUE DECISION explored by the policy.
//  - An acquire load that observes a release store joins the writer's
//    clock snapshot (the synchronizes-with edge); a RELAXED load never
//    synchronizes, and a relaxed STORE publishes no clock — so weakening
//    a load-bearing release/acquire pair makes stale observations reach
//    further and drops the ordering edge, which is exactly how seeded
//    ordering bugs (tests/mc_bug_*.cpp) are caught.
//  - RMWs always read the NEWEST store (C++ requires an RMW to read the
//    last value in modification order) and extend release sequences.
//  - seq_cst is approximated as acq_rel plus a per-location floor: a
//    seq_cst load never observes anything older than the last seq_cst
//    store to that location. The global S order is not modeled beyond
//    this, and standalone fences do not synchronize (mc::fence is a
//    scheduling point only) — the library carries every needed edge on
//    the accesses themselves for exactly this reason (and for TSan).
//
// The kept history is a small ring (kHistory entries): staleness older
// than that is not explored. This bounds the model, it does not unsound
// -ly shrink the schedule space — evicted values simply stop being
// offered.
//
// Outside an episode (no active Run, or before spawn / after join_all)
// the types degrade to plain sequential behavior while still recording
// stores, so setup writes are visible to threads and verify-phase loads
// read final values.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <type_traits>

#include "mc/sched.hpp"

namespace spr::mc {

namespace detail {

template <typename T>
std::uint64_t to_u64(T v) {
  if constexpr (std::is_pointer_v<T>)
    return reinterpret_cast<std::uint64_t>(v);
  else
    return static_cast<std::uint64_t>(v);
}

inline bool has_acquire(std::memory_order mo) {
  return mo == std::memory_order_acquire || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst || mo == std::memory_order_consume;
}
inline bool has_release(std::memory_order mo) {
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}

}  // namespace detail

template <typename T>
class atomic {
  static_assert(std::is_trivially_copyable_v<T>,
                "mc::atomic requires trivially copyable T");

 public:
  atomic() noexcept { init(T{}); }
  explicit atomic(T v) noexcept { init(v); }
  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    Run* r = Run::current();
    if (r == nullptr || !r->executing()) return newest().value;
    r->sched_point(PointKind::kOp);
    const unsigned t = r->tid();
    // Admissibility floor: nothing older than (a) what this thread has
    // already observed here, (b) the newest store that happens-before
    // this load, (c) for seq_cst loads, the last seq_cst store.
    std::uint32_t floor = min_read_[t];
    for (unsigned i = 0; i < count_; ++i) {
      const Entry& e = entry(i);
      if (e.idx > floor && r->clock(t).covers(e.writer, e.wclock))
        floor = e.idx;
    }
    if (mo == std::memory_order_seq_cst && sc_floor_ > floor)
      floor = sc_floor_;
    // Candidates, newest first (index 0 = newest = SC behavior).
    unsigned cand[kHistory] = {};  // n >= 1 always (the newest entry)
    unsigned n = 0;
    for (unsigned i = 0; i < count_; ++i)
      if (entry(i).idx >= floor) cand[n++] = i;  // entry(0) is newest
    const unsigned pick = n > 1 ? r->value_point(n) : 0;
    const Entry& e = entry(cand[pick]);
    min_read_[t] = e.idx;
    if (detail::has_acquire(mo) && e.release) r->clock(t).join(e.vc);
    r->note("load", this, detail::to_u64(e.value), pick);
    return e.value;
  }

  void store(T v, std::memory_order mo = std::memory_order_seq_cst) {
    Run* r = Run::current();
    if (r == nullptr || !r->executing()) {
      push(v, 0, 0, /*release=*/true, VectorClock{}, /*sc=*/true);
      return;
    }
    r->sched_point(PointKind::kOp);
    commit_store(r, v, mo);
    r->note("store", this, detail::to_u64(v));
  }

  T exchange(T v, std::memory_order mo = std::memory_order_seq_cst) {
    return rmw("exchange", mo, [&](T) { return v; });
  }

  T fetch_add(T d, std::memory_order mo = std::memory_order_seq_cst) {
    return rmw("fetch_add", mo, [&](T old) { return static_cast<T>(old + d); });
  }
  T fetch_sub(T d, std::memory_order mo = std::memory_order_seq_cst) {
    return rmw("fetch_sub", mo, [&](T old) { return static_cast<T>(old - d); });
  }

  bool compare_exchange_strong(
      T& expected, T desired, std::memory_order ok = std::memory_order_seq_cst,
      std::memory_order fail = std::memory_order_seq_cst) {
    Run* r = Run::current();
    if (r == nullptr || !r->executing()) {
      const T cur = newest().value;
      if (cur == expected) {
        push(desired, 0, 0, true, VectorClock{}, true);
        return true;
      }
      expected = cur;
      return false;
    }
    r->sched_point(PointKind::kOp);
    const unsigned t = r->tid();
    const Entry& cur = newest();  // an RMW reads the newest store
    min_read_[t] = cur.idx;
    if (cur.value == expected) {
      if (detail::has_acquire(ok) && cur.release) r->clock(t).join(cur.vc);
      commit_store(r, desired, ok);
      r->note("cas-ok", this, detail::to_u64(desired));
      return true;
    }
    if (detail::has_acquire(fail) && cur.release) r->clock(t).join(cur.vc);
    expected = cur.value;
    r->note("cas-fail", this, detail::to_u64(cur.value));
    return false;
  }
  bool compare_exchange_weak(T& expected, T desired,
                             std::memory_order ok = std::memory_order_seq_cst,
                             std::memory_order fail =
                                 std::memory_order_seq_cst) {
    // No spurious failures: they only widen the schedule space the DFS
    // already covers via preemption at the retry loop's reload.
    return compare_exchange_strong(expected, desired, ok, fail);
  }

 private:
  static constexpr unsigned kHistory = 4;

  struct Entry {
    T value{};
    std::uint32_t idx = 0;     ///< position in modification order
    std::uint8_t writer = 0;   ///< logical thread id of the storer
    std::uint32_t wclock = 0;  ///< writer's own clock at the store
    bool release = false;
    VectorClock vc;  ///< writer snapshot (meaningful when release)
  };

  void init(T v) {
    // The initial value behaves like a setup-phase seq_cst store by
    // main: it happens-before everything and is never "stale".
    push(v, 0, 0, true, VectorClock{}, true);
  }

  /// entry(0) is the newest store, entry(count_-1) the oldest kept.
  Entry& entry(unsigned ago) const {
    return hist_[(head_ + kHistory - ago) % kHistory];
  }
  Entry& newest() const { return hist_[head_]; }

  void push(T v, std::uint8_t writer, std::uint32_t wclock, bool release,
            const VectorClock& vc, bool sc) {
    head_ = (head_ + 1) % kHistory;
    if (count_ < kHistory) ++count_;
    Entry& e = hist_[head_];
    e.value = v;
    e.idx = ++next_idx_;
    e.writer = writer;
    e.wclock = wclock;
    e.release = release;
    e.vc = vc;
    if (sc) sc_floor_ = e.idx;
  }

  void commit_store(Run* r, T v, std::memory_order mo) {
    const unsigned t = r->tid();
    VectorClock& tc = r->clock(t);
    ++tc.c[t];
    const bool rel = detail::has_release(mo);
    // Release-sequence approximation: a non-release store by the SAME
    // thread that last released would break the sequence in real C++
    // too, so publishing only the releasing snapshot is conservative.
    push(v, static_cast<std::uint8_t>(t), tc.c[t], rel,
         rel ? tc : VectorClock{}, mo == std::memory_order_seq_cst);
    min_read_[t] = newest().idx;
  }

  template <typename F>
  T rmw(const char* opname, std::memory_order mo, F f) {
    Run* r = Run::current();
    if (r == nullptr || !r->executing()) {
      const T old = newest().value;
      push(f(old), 0, 0, true, VectorClock{}, true);
      return old;
    }
    r->sched_point(PointKind::kOp);
    const unsigned t = r->tid();
    const Entry& cur = newest();
    min_read_[t] = cur.idx;
    if (detail::has_acquire(mo) && cur.release) r->clock(t).join(cur.vc);
    const T old = cur.value;
    commit_store(r, f(old), mo);
    r->note(opname, this, detail::to_u64(old));
    return old;
  }

  mutable Entry hist_[kHistory];
  mutable unsigned head_ = 0;
  mutable unsigned count_ = 0;
  mutable std::uint32_t next_idx_ = 0;
  mutable std::uint32_t sc_floor_ = 0;
  mutable std::uint32_t min_read_[kMaxThreads] = {};
};

/// Cooperative mutex: lock() blocks the logical thread (the scheduler
/// stops offering it until unlock), and lock/unlock carry an acq/rel
/// edge through the mutex's own clock. std::lock_guard works unchanged.
class mutex {
 public:
  mutex() = default;
  mutex(const mutex&) = delete;
  mutex& operator=(const mutex&) = delete;

  void lock() {
    Run* r = Run::current();
    if (r == nullptr || !r->executing()) {
      held_ = true;  // setup/verify phases are single-threaded
      return;
    }
    r->sched_point(PointKind::kOp);
    while (held_) {
      waiters_ |= 1u << r->tid();
      r->block_current();  // resumed by unlock()
      waiters_ &= ~(1u << r->tid());
    }
    held_ = true;
    r->clock(r->tid()).join(vc_);
    r->note("lock", this, 1);
  }

  /// Non-blocking acquire: one scheduling point, then either takes the
  /// mutex (same acquire edge as lock()) or reports it busy. Lets client
  /// code count contended acquisitions without a second lock protocol.
  bool try_lock() {
    Run* r = Run::current();
    if (r == nullptr || !r->executing()) {
      if (held_) return false;
      held_ = true;
      return true;
    }
    r->sched_point(PointKind::kOp);
    if (held_) {
      r->note("trylock", this, 0);
      return false;
    }
    held_ = true;
    r->clock(r->tid()).join(vc_);
    r->note("trylock", this, 1);
    return true;
  }

  void unlock() {
    Run* r = Run::current();
    if (r == nullptr || !r->executing()) {
      held_ = false;
      return;
    }
    vc_.join(r->clock(r->tid()));
    ++r->clock(r->tid()).c[r->tid()];
    held_ = false;
    r->note("unlock", this, 0);
    for (unsigned t = 1; t < kMaxThreads; ++t)
      if (waiters_ & (1u << t)) r->wake(t);
    r->sched_point(PointKind::kOp);
  }

 private:
  bool held_ = false;
  unsigned waiters_ = 0;
  VectorClock vc_;
};

/// Standalone fence: scheduling point only; does NOT synchronize (see
/// the header comment — the library never relies on fences).
inline void fence(std::memory_order) {
  if (Run* r = Run::current()) r->sched_point(PointKind::kOp);
}

}  // namespace spr::mc
