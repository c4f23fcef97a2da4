#pragma once
// Wall-clock stopwatch plus the small compiler-fencing helpers the bench
// harnesses use to defeat dead-code elimination.

#include <chrono>
#include <cstdint>

namespace spr::util {

class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  double elapsed_s() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  double elapsed_ns() const { return elapsed_s() * 1e9; }

  void reset() { start_ = clock::now(); }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Burns `iters` cheap ALU operations and returns a checksum so the work
/// cannot be optimized away. Used as the per-thread "useful work" knob.
inline std::uint64_t spin_work(std::uint64_t iters) {
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Keeps `value` alive and opaque to the optimizer, so a bench loop whose
/// result is otherwise unused is not deleted.
template <typename T>
inline void do_not_optimize(T const& value) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r,m"(value) : "memory");
#else
  volatile T sink = value;
  (void)sink;
#endif
}

}  // namespace spr::util
