#pragma once
// Chase-Lev lock-free work-stealing deque (Chase & Lev, SPAA 2005), in the
// C11-atomics formulation of Le, Pop, Cohen & Zappa Nardelli (PPoPP 2013).
// The owner pushes and pops at the bottom; thieves steal from the top, so
// a steal always takes the OLDEST pending continuation. That discipline is
// load-bearing for SP-hybrid: the stolen node is the shallowest pending
// fork of the victim, which is exactly what keeps the steal-time global-tier
// split sound, as long as one victim's splits also run in steal order
// (locked_steal below; see sphybrid/README.md).
//
// Memory-ordering notes: the published algorithm uses standalone fences;
// this version strengthens the handoff edges to release/acquire pairs on
// `bottom` and the buffer slots so the happens-before chain from "victim
// prepared the task's parse-tree slots" to "thief reads them" is carried
// entirely by atomic operations (keeps ThreadSanitizer exact, costs
// nothing on x86). The buffer grows geometrically; retired buffers are
// kept until destruction so a racing thief can never read freed memory.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/atomics.hpp"

namespace spr::hybrid {

template <typename T>
class ChaseLevDeque {
 public:
  // The handoff edge the whole deque hangs on: push_bottom's publishing
  // store of `bottom`. The model-check suite deliberately demotes it to
  // relaxed (-DSPR_MC_SEED_BUG_DEQUE_PUSH_RELAXED, MC builds only) to
  // prove the checker catches the resulting stale-slot steal; see
  // tests/mc_bug_test.cpp.
#if defined(SPR_MODEL_CHECK) && defined(SPR_MC_SEED_BUG_DEQUE_PUSH_RELAXED)
  static constexpr std::memory_order kBottomPublish =
      std::memory_order_relaxed;  // SEEDED BUG — never set outside MC
#else
  static constexpr std::memory_order kBottomPublish =
      std::memory_order_release;
#endif

  explicit ChaseLevDeque(std::size_t initial_capacity = 64)
      : array_(new Array(round_up_pow2(initial_capacity))) {}

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  ~ChaseLevDeque() { delete array_.load(std::memory_order_relaxed); }

  /// Owner only. Pushes one task at the bottom.
  void push_bottom(T value) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Array* a = array_.load(std::memory_order_relaxed);
    if (b - t > static_cast<std::int64_t>(a->capacity) - 1) a = grow(a, t, b);
    a->put(b, value);
    // Release: publishes the slot write and everything the owner prepared
    // for this task (entry trace, join counters) to any thief that acquires
    // `bottom` or wins the steal CAS.
    bottom_.store(b + 1, kBottomPublish);
  }

  /// Owner only. Pops the most recently pushed task; false when empty.
  bool pop_bottom(T& out) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Array* a = array_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_seq_cst);
    const std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {  // deque was empty
      bottom_.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    out = a->get(b);
    if (t != b) return true;  // more than one entry: uncontended
    // Last entry: race the thieves for it via `top`.
    std::int64_t expected = t;
    const bool won = top_.compare_exchange_strong(
        expected, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_relaxed);
    return won;
  }

  enum class StealResult : std::uint8_t { kStolen, kEmpty, kAbort };

  /// Any thread. Attempts to steal the oldest task (the top entry).
  StealResult steal(T& out) {
    const std::int64_t t = top_.load(std::memory_order_seq_cst);
    // seq_cst, not acquire: this load stands in for the SC fence of the
    // PPoPP'13 formulation. An acquire load is outside the SC order, so
    // after this thief's own top CAS it could still read a bottom value
    // older than a pop's seq_cst store and re-steal an item the owner
    // already popped uncontended (double take). The mc suite found that
    // interleaving when this was acquire; seq_cst forces the load to
    // observe at least the last seq_cst pop-side store of `bottom`.
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return StealResult::kEmpty;
    Array* a = array_.load(std::memory_order_acquire);
    const T value = a->get(t);
    std::int64_t expected = t;
    if (!top_.compare_exchange_strong(expected, t + 1,
                                      std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
      return StealResult::kAbort;  // lost to the owner or another thief
    out = value;
    return StealResult::kStolen;
  }

  /// Approximate size; exact only when quiescent.
  std::int64_t size_relaxed() const {
    return bottom_.load(std::memory_order_relaxed) -
           top_.load(std::memory_order_relaxed);
  }

 private:
  struct Array {
    explicit Array(std::size_t cap)
        : capacity(cap), mask(cap - 1), slots(new spr::atomic<T>[cap]) {}
    const std::size_t capacity;
    const std::size_t mask;
    std::unique_ptr<spr::atomic<T>[]> slots;

    void put(std::int64_t i, T v) {
      slots[static_cast<std::size_t>(i) & mask].store(
          v, std::memory_order_relaxed);
    }
    T get(std::int64_t i) const {
      return slots[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
  };

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 8;
    while (p < n) p <<= 1;
    return p;
  }

  Array* grow(Array* old, std::int64_t t, std::int64_t b) {
    Array* bigger = new Array(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    array_.store(bigger, std::memory_order_release);
    // A thief may still hold the old array pointer: retire, free at dtor.
    retired_.emplace_back(old);
    return bigger;
  }

  spr::atomic<std::int64_t> top_{0};
  spr::atomic<std::int64_t> bottom_{0};
  spr::atomic<Array*> array_;
  std::vector<std::unique_ptr<Array>> retired_;  ///< owner only
};

/// SP-hybrid's steal: try-locks the victim's `lock`, steals the victim's
/// oldest task and runs `split(task)` before unlocking, so one victim's
/// splits happen in the order of its steals (a shallower steal's global
/// inserts land before a deeper one's). False if the lock was busy or
/// nothing was stolen.
template <typename T, typename Split>
bool locked_steal(spr::spin_lock& lock, ChaseLevDeque<T>& d, T& out,
                  Split&& split) {
  if (!lock.try_lock()) return false;
  const bool stolen =
      d.steal(out) == ChaseLevDeque<T>::StealResult::kStolen;
  if (stolen) split(out);
  lock.unlock();
  return stolen;
}

}  // namespace spr::hybrid
