#pragma once
// spr::mc scheduling core: N logical threads serialized onto one OS
// thread as ucontext fibers, driven by a pluggable decision policy.
//
// Every instrumented operation (mc/atomic.hpp) calls back into the
// active Run at a SCHEDULING POINT, where the policy may preempt the
// current logical thread, and (for weak loads) at a VALUE POINT, where
// the policy picks which admissible store a load observes. The decision
// sequence fully determines the execution, so a recorded (degree,
// chosen) vector replays an execution exactly — that is what makes
// failure traces replayable (mc/checker.hpp::replay).
//
// Point kinds and their cost model (iterative context bounding, after
// Musuvathi & Qadeer's CHESS):
//  - kOp     before each atomic access. Default is to continue the
//            current thread; switching here is a PREEMPTION and is only
//            offered while the episode's preemption budget lasts.
//  - kYield  spr::spin_pause() in a retry loop: the current thread
//            cannot progress, so switching is mandatory (and free) when
//            anyone else is runnable.
//  - kBlock  the current thread just blocked (mutex) or finished: a
//            switch is required; all runnable successors are offered
//            free of preemption cost.
// With budget 0 the explored set is exactly the non-preemptive
// schedules; each extra unit of budget adds one preemption anywhere.

#include <ucontext.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace spr::mc {

inline constexpr unsigned kMaxThreads = 8;  ///< main (0) + 7 spawned

// ---------------------------------------------------------------------
// Vector clocks: one component per logical thread; main is component 0.

struct VectorClock {
  std::array<std::uint32_t, kMaxThreads> c{};

  void join(const VectorClock& o) {
    for (unsigned i = 0; i < kMaxThreads; ++i)
      if (o.c[i] > c[i]) c[i] = o.c[i];
  }
  /// True iff this clock has observed (writer, wclock): the store
  /// happens-before any operation carrying this clock.
  bool covers(unsigned writer, std::uint32_t wclock) const {
    return c[writer] >= wclock;
  }
};

// ---------------------------------------------------------------------
// Decisions.

enum class DKind : std::uint8_t { kSched, kValue };

/// One recorded decision: `degree` options existed, `chosen` was taken.
struct Decision {
  std::uint32_t degree = 1;
  std::uint32_t chosen = 0;
};

/// Exploration policy: DFS, random walk, or fixed replay (mc/checker.hpp).
class DecisionPolicy {
 public:
  virtual ~DecisionPolicy() = default;
  /// Must return a value in [0, degree). Called only when degree > 1.
  virtual unsigned choose(DKind kind, unsigned degree) = 0;
  const std::vector<Decision>& path() const { return path_; }
  void record(DKind, unsigned degree, unsigned chosen) {
    path_.push_back({degree, chosen});
  }
  void clear_path() { path_.clear(); }

 protected:
  std::vector<Decision> path_;
};

// ---------------------------------------------------------------------
// Failure signalling. Thrown through the episode body; the checker
// harvests message + trace from the Run. Fiber trampolines catch it at
// the fiber boundary so it never crosses a context switch.

struct Violation : std::runtime_error {
  explicit Violation(const std::string& m) : std::runtime_error(m) {}
};

enum class PointKind : std::uint8_t { kOp, kYield, kBlock };

/// Per-episode limits, set by the explorer.
struct RunLimits {
  unsigned preemption_budget = 2;
  std::uint64_t max_steps = 1u << 20;  ///< livelock guard
  unsigned stale_read_budget = 4;      ///< weak-load value branches
};

// ---------------------------------------------------------------------
// The Run: one episode's worth of fibers + bookkeeping.

class Run {
 public:
  Run(DecisionPolicy& policy, const RunLimits& limits)
      : policy_(policy), limits_(limits) {
    active_run() = this;
  }
  ~Run() {
    if (active_run() == this) active_run() = nullptr;
  }
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  static Run*& active_run() {
    static Run* r = nullptr;
    return r;
  }
  static Run* current() { return active_run(); }

  /// True while logical threads are executing (between join_all() entry
  /// and its return). Outside this window instrumented ops run in plain
  /// sequential mode (setup / verify phases on the main context).
  bool executing() const { return executing_; }

  unsigned tid() const { return cur_; }
  VectorClock& clock(unsigned t) { return t == 0 ? main_vc_ : fibers_[t - 1]->vc; }

  /// Registers a logical thread; it starts running inside join_all().
  void spawn(std::function<void()> fn) {
    if (fibers_.size() + 1 >= kMaxThreads)
      throw std::logic_error("mc::Run: too many logical threads");
    auto f = std::make_unique<Fiber>();
    f->fn = std::move(fn);
    f->vc = main_vc_;  // the spawn edge: child sees all setup writes
    f->stack.reset(new char[kStackBytes]);
    getcontext(&f->ctx);
    f->ctx.uc_stack.ss_sp = f->stack.get();
    f->ctx.uc_stack.ss_size = kStackBytes;
    f->ctx.uc_link = &main_ctx_;
    const unsigned idx = static_cast<unsigned>(fibers_.size());
    makecontext(&f->ctx, reinterpret_cast<void (*)()>(&Run::trampoline_entry),
                1, static_cast<int>(idx));
    fibers_.push_back(std::move(f));
  }

  /// Runs all spawned threads to completion under the policy's schedule.
  /// Throws Violation if any thread failed an SPR_MC_ASSERT / deadlocked
  /// / exceeded the step budget. On return main's clock has joined every
  /// thread's (the join edge), so verify-phase loads read final values.
  void join_all() {
    if (fibers_.empty()) return;
    executing_ = true;
    const unsigned first = pick_next(PointKind::kBlock, /*cur_runnable=*/false);
    cur_ = first;
    swapcontext(&main_ctx_, &fibers_[first - 1]->ctx);
    // All fibers done (or the episode aborted).
    executing_ = false;
    cur_ = 0;
    for (auto& f : fibers_) main_vc_.join(f->vc);
    if (failed_) throw Violation(fail_msg_);
  }

  // ---- hooks for mc/atomic.hpp ---------------------------------------

  /// A scheduling point. May context-switch before returning.
  void sched_point(PointKind kind) {
    if (!executing_) return;
    if (++steps_ > limits_.max_steps)
      fail("step budget exceeded: livelock or unfair schedule suspected");
    const bool cur_runnable = kind != PointKind::kBlock;
    const unsigned next = pick_next(kind, cur_runnable);
    if (next == cur_) return;
    if (kind == PointKind::kOp) ++preempts_;
    switch_to(next);
  }

  /// A value point: a weak load with `degree` admissible stores (index 0
  /// = newest). Consumes stale budget only when an older value is taken.
  unsigned value_point(unsigned degree) {
    if (!executing_ || degree <= 1) return 0;
    if (stale_used_ >= limits_.stale_read_budget) return 0;
    const unsigned c = policy_.choose(DKind::kValue, degree);
    policy_.record(DKind::kValue, degree, c);
    if (c > 0) ++stale_used_;
    return c;
  }

  /// Blocks the current thread until `wake(tid)`; switches away.
  void block_current() {
    fibers_[cur_ - 1]->st = Status::kBlocked;
    sched_point(PointKind::kBlock);
  }
  void wake(unsigned t) {
    if (t != 0 && fibers_[t - 1]->st == Status::kBlocked)
      fibers_[t - 1]->st = Status::kRunnable;
  }

  /// Records a failure, captures the trace, aborts the episode.
  [[noreturn]] void fail(const std::string& msg) {
    failed_ = true;
    fail_msg_ = msg;
    throw Violation(msg);
  }

  bool failed() const { return failed_; }
  const std::string& failure_message() const { return fail_msg_; }
  std::uint64_t steps() const { return steps_; }

  // ---- step trace ----------------------------------------------------

  struct Step {
    std::uint8_t tid;
    const char* op;        ///< static string ("load", "store", ...)
    const void* obj;       ///< the atomic / mutex
    std::uint64_t value;   ///< value read / written
    std::uint8_t stale;    ///< value-point choice (0 = newest)
  };

  void note(const char* op, const void* obj, std::uint64_t value,
            unsigned stale = 0) {
    trace_.push_back({static_cast<std::uint8_t>(cur_), op, obj, value,
                      static_cast<std::uint8_t>(stale)});
  }

  /// Human-readable rendering of the executed step trace.
  std::string format_trace(std::size_t max_steps = 400) const {
    std::string out;
    char line[160];
    const std::size_t begin =
        trace_.size() > max_steps ? trace_.size() - max_steps : 0;
    if (begin > 0) {
      std::snprintf(line, sizeof line, "  ... %zu earlier steps elided ...\n",
                    begin);
      out += line;
    }
    int last_tid = -1;
    for (std::size_t i = begin; i < trace_.size(); ++i) {
      const Step& s = trace_[i];
      if (s.tid != last_tid) {
        std::snprintf(line, sizeof line, "  --- switch to T%u ---\n", s.tid);
        out += line;
        last_tid = s.tid;
      }
      std::snprintf(line, sizeof line, "  #%-5zu T%u %-14s %p = %llu%s\n", i,
                    s.tid, s.op, s.obj,
                    static_cast<unsigned long long>(s.value),
                    s.stale ? "  [stale read]" : "");
      out += line;
    }
    return out;
  }

 private:
  enum class Status : std::uint8_t { kRunnable, kBlocked, kDone };

  struct Fiber {
    ucontext_t ctx;
    std::unique_ptr<char[]> stack;
    std::function<void()> fn;
    Status st = Status::kRunnable;
    VectorClock vc;
  };

  static constexpr std::size_t kStackBytes = 256 * 1024;

  static void trampoline_entry(int idx) {
    Run* r = active_run();
    Fiber& f = *r->fibers_[static_cast<std::size_t>(idx)];
    try {
      f.fn();
    } catch (const Violation&) {
      // fail() already recorded message + abort flag.
    } catch (const std::exception& e) {
      r->failed_ = true;
      r->fail_msg_ = std::string("uncaught exception in logical thread: ") +
                     e.what();
    }
    f.st = Status::kDone;
    r->after_fiber_done();
  }

  void after_fiber_done() {
    if (failed_ || !any_undone()) {
      swapcontext(&fibers_[cur_ - 1]->ctx, &main_ctx_);
      return;  // unreachable: the run never resumes a done fiber
    }
    const unsigned next = pick_next(PointKind::kBlock, /*cur_runnable=*/false);
    switch_to(next);
  }

  bool any_undone() const {
    for (const auto& f : fibers_)
      if (f->st != Status::kDone) return true;
    return false;
  }

  /// Chooses the next thread to run. Options are ordered: current first
  /// (when continuing is allowed), then other runnable threads by id —
  /// so decision index 0 is always the "default schedule" choice.
  unsigned pick_next(PointKind kind, bool cur_runnable) {
    unsigned options[kMaxThreads];
    unsigned n = 0;
    const bool offer_current =
        cur_runnable && cur_ != 0;  // main never competes with fibers
    const bool offer_others =
        kind != PointKind::kOp || preempts_ < limits_.preemption_budget;
    if (offer_current) options[n++] = cur_;
    if (offer_others || !offer_current) {
      for (unsigned t = 1; t < static_cast<unsigned>(fibers_.size()) + 1; ++t)
        if (t != cur_ && fibers_[t - 1]->st == Status::kRunnable)
          options[n++] = t;
    }
    if (n == 0) {
      if (offer_current) return cur_;
      fail("deadlock: no runnable logical thread");
    }
    if (n == 1) return options[0];
    // kYield with others runnable: continuing the spinner is pointless
    // (it just re-reads the same state), so drop option 0.
    unsigned base = 0;
    if (kind == PointKind::kYield && offer_current && n > 1) base = 1;
    const unsigned degree = n - base;
    if (degree == 1) return options[base];
    const unsigned c = policy_.choose(DKind::kSched, degree);
    policy_.record(DKind::kSched, degree, c);
    return options[base + c];
  }

  void switch_to(unsigned next) {
    const unsigned prev = cur_;
    cur_ = next;
    ucontext_t* from = prev == 0 ? &main_ctx_ : &fibers_[prev - 1]->ctx;
    swapcontext(from, &fibers_[next - 1]->ctx);
  }

  DecisionPolicy& policy_;
  RunLimits limits_;
  ucontext_t main_ctx_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  VectorClock main_vc_;
  std::vector<Step> trace_;
  unsigned cur_ = 0;
  unsigned preempts_ = 0;
  unsigned stale_used_ = 0;
  std::uint64_t steps_ = 0;
  bool executing_ = false;
  bool failed_ = false;
  std::string fail_msg_;
};

/// Mandatory-switch point (spin loops); see util/atomics.hpp.
inline void yield() {
  if (Run* r = Run::current()) r->sched_point(PointKind::kYield);
}

}  // namespace spr::mc

/// Model-checked invariant: failing records a replayable trace and
/// aborts the episode. Usable from logical threads and from the verify
/// phase on the main context.
#define SPR_MC_ASSERT(cond, msg)                                          \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::spr::mc::Run* spr_mc_r = ::spr::mc::Run::current();               \
      if (spr_mc_r != nullptr)                                            \
        spr_mc_r->fail(std::string("SPR_MC_ASSERT failed: ") + #cond +    \
                       " — " + (msg));                                    \
      throw std::logic_error(std::string("SPR_MC_ASSERT outside run: ") + \
                             #cond + " — " + (msg));                      \
    }                                                                     \
  } while (0)
