#pragma once
// Atomics policy layer: the single point where the lock-free core binds
// to a memory model. The concurrent structures the model-check suite
// (tests/mc_test.cpp) drives — sphybrid/deque.hpp, sphybrid/global_tier.hpp
// and the om/order_list.hpp fields its readers load, spbags/dsu.hpp,
// race/stream/shadow_shards.hpp and the stream service's locks —
// declare their shared state as spr::atomic<T> / spr::mutex /
// spr::spin_lock and back off in retry loops via spr::spin_pause(),
// never touching <atomic> or <thread> directly. The engine's own
// bookkeeping (sphybrid/worker.hpp: join counters, completed-subtree
// roots, entry traces, the race count, the done flag and kNaive's mutex)
// and spbags/trace_bags.hpp's set-root words use the std types; the
// checker never runs the engine, and TSan covers it
// (sphybrid_parallel_test, with the stress repeat in CI).
//
//  - Normal builds: zero-cost aliases of std::atomic / std::mutex.
//    Release codegen is identical to using the std types (checked:
//    BENCH_2.json vs BENCH_1.json).
//  - -DSPR_MODEL_CHECK=ON builds: the same names dispatch to spr::mc
//    (mc/atomic.hpp), where every load/store/RMW/lock is a scheduling
//    point of a cooperative model checker that explores interleavings
//    and stale-read weak-memory behaviors systematically (mc/checker.hpp
//    has the exploration driver; tests/mc_test.cpp the scenarios).
//
// Memory orders stay spelled as std::memory_order in client code; the
// model checker consumes the same enum. There is no standalone fence:
// every happens-before edge rides on an atomic access, which TSan and the
// checker both model (sphybrid/global_tier.hpp's seqlock comment).
//
// spr::spin_lock is defined once, below both branches, on spr::atomic:
// under the checker it is explored like any other atomic protocol, not
// trusted as a primitive the way mc::mutex is.

#if defined(SPR_MODEL_CHECK)

#include "mc/atomic.hpp"

namespace spr {

template <typename T>
using atomic = mc::atomic<T>;
using mutex = mc::mutex;
template <typename M>
using lock_guard = std::lock_guard<M>;

/// Back-off after a failed spin-lock or seqlock try. Under the checker
/// every failed try must switch threads: re-reading the lock word or
/// version without a switch cannot see it change, and would only burn
/// the step budget.
inline void spin_pause(unsigned /*tries*/) { mc::yield(); }

}  // namespace spr

#else  // !SPR_MODEL_CHECK

#include <atomic>
#include <mutex>
#include <thread>

namespace spr {

template <typename T>
using atomic = std::atomic<T>;
using mutex = std::mutex;
template <typename M>
using lock_guard = std::lock_guard<M>;

/// Back-off after a failed spin-lock or seqlock try: a CPU pause for the
/// first kSpins failed tries (the critical sections and seqlock write
/// sections it waits out are short, so the holder is about to finish),
/// then yield the core in case the holder was descheduled.
inline void spin_pause(unsigned tries) {
  constexpr unsigned kSpins = 64;
  if (tries < kSpins) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  } else {
    std::this_thread::yield();
  }
}

}  // namespace spr

#endif  // SPR_MODEL_CHECK

namespace spr {

/// Test-and-test-and-set spin lock (BasicLockable) for critical sections
/// of a few hundred nanoseconds: a shadow shard's cell update or an
/// SP-hybrid thief's steal and split. A std::mutex sleeps on its first
/// collision, and the futex round trip costs far more than waiting out
/// the holder. Waiters re-read the word
/// relaxed, so the cache line stays shared until the holder's release
/// store; only then do they retry the acquire exchange.
class spin_lock {
 public:
  void lock() {
    for (unsigned tries = 0;;) {
#if defined(SPR_MODEL_CHECK) && defined(SPR_MC_SEED_BUG_SHARD_LOCK_SPLIT)
      // Seeded bug (tests/mc_bug_test.cpp): the test and the set are two
      // steps, so two threads can both see the lock free and both enter.
      if (!locked_.load(std::memory_order_acquire)) {
        locked_.store(true, std::memory_order_relaxed);
        return;
      }
#else
      if (!locked_.exchange(true, std::memory_order_acquire)) return;
#endif
      do {
        spin_pause(tries++);
      } while (locked_.load(std::memory_order_relaxed));
    }
  }

  /// One attempt, no waiting: true iff the lock is now held.
  bool try_lock() {
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void unlock() { locked_.store(false, std::memory_order_release); }

 private:
  atomic<bool> locked_{false};
};

}  // namespace spr
