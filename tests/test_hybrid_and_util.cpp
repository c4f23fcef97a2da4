// Tests for the SP-hybrid execution harness (serial reference
// implementation), parse-tree metrics, and the util layer (rng/stats/
// table formatting, the spin lock).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "sphybrid/executor.hpp"
#include "sptree/metrics.hpp"
#include "util/atomics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using spr::hybrid::ExecOptions;
using spr::hybrid::Mode;

TEST(Hybrid, ModesRunAndCountersHold) {
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_fib(12, 4));
  for (const Mode mode : {Mode::kPlain, Mode::kNaive, Mode::kHybrid,
                          Mode::kSerialReference}) {
    ExecOptions o;
    o.mode = mode;
    o.workers = 2;
    o.queries_per_leaf = 2;
    const auto r = spr::hybrid::run_parallel(t, o);
    EXPECT_GT(r.elapsed_s, 0.0);
    EXPECT_LE(r.traces, 4 * r.steals + 1);  // Section 5's trace bound
    if (mode == Mode::kNaive) {
      // Naive locks every OM insertion: one item per order per internal
      // node.
      EXPECT_EQ(r.om_inserts,
                2ull * (t.node_count() - t.leaf_count()));
    } else if (mode == Mode::kHybrid) {
      // Hybrid pays locked insertions only on steals: the two-tier orders
      // take exactly 3 global cuts per trace split (measured, not modeled).
      EXPECT_EQ(r.om_inserts, 3 * r.splits);
      EXPECT_GE(r.steals, r.splits);
    } else {
      EXPECT_EQ(r.om_inserts, 0u);
      // kPlain runs on the work-stealing engine and may steal; only the
      // serial reference never does.
      if (mode == Mode::kSerialReference) {
        EXPECT_EQ(r.steals, 0u);
      }
    }
    if (mode != Mode::kPlain) {
      EXPECT_GT(r.queries, 0u);
    }
  }
}

TEST(Hybrid, SingleWorkerNeverStealsOrTouchesGlobalTier) {
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_fib(12, 4));
  ExecOptions o;
  o.mode = Mode::kHybrid;
  o.workers = 1;
  o.queries_per_leaf = 2;
  const auto r = spr::hybrid::run_parallel(t, o);
  EXPECT_EQ(r.workers_used, 1u);
  EXPECT_EQ(r.steals, 0u);
  EXPECT_EQ(r.splits, 0u);
  EXPECT_EQ(r.om_inserts, 0u);
  EXPECT_EQ(r.traces, 1u);
}

TEST(Hybrid, WorkerCountIsValidated) {
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_fib(6));
  ExecOptions o;
  o.workers = 0;
  EXPECT_THROW(spr::hybrid::run_parallel(t, o), std::invalid_argument);
  o.workers = 1u << 20;  // absurd request clamps to the hardware
  const auto r = spr::hybrid::run_parallel(t, o);
  EXPECT_GE(r.workers_used, 1u);
  EXPECT_LE(r.workers_used, std::max(4u, std::thread::hardware_concurrency()));
}

TEST(Hybrid, DetectsInjectedRaces) {
  ExecOptions o;
  o.mode = Mode::kHybrid;
  o.detect_races = true;
  const auto clean = spr::fj::lower_to_parse_tree(
      spr::fj::make_dnc_fill(1u << 10, 8, false));
  EXPECT_FALSE(spr::hybrid::run_parallel(clean, o).has_race());
  const auto racy = spr::fj::lower_to_parse_tree(
      spr::fj::make_dnc_fill(1u << 10, 8, true));
  EXPECT_TRUE(spr::hybrid::run_parallel(racy, o).has_race());
}

TEST(Metrics, BalancedTree) {
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_balanced(4));
  const auto m = spr::tree::compute_metrics(t);
  EXPECT_EQ(m.threads, 16u);
  EXPECT_EQ(m.p_nodes, 15u);
  EXPECT_EQ(m.max_p_depth, 4u);
  EXPECT_EQ(m.work, 32u);  // 16 leaves x (work 1 + 1)
  EXPECT_EQ(m.span, 2u);   // all-parallel: one leaf on the critical path
}

TEST(Metrics, SeriesChainAddsSpans) {
  const auto t =
      spr::fj::lower_to_parse_tree(spr::fj::make_loop_sync(8, 1, 1));
  const auto m = spr::tree::compute_metrics(t);
  EXPECT_EQ(m.threads, 8u);
  EXPECT_EQ(m.work, m.span);  // everything serial
}

TEST(Metrics, NodeAccountingConsistent) {
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_fib(9));
  const auto m = spr::tree::compute_metrics(t);
  EXPECT_EQ(m.threads + m.p_nodes + m.s_nodes, t.node_count());
  EXPECT_EQ(m.threads, t.leaf_count());
  EXPECT_GE(m.work, m.span);
}

TEST(Util, XoshiroIsDeterministicAndBounded) {
  spr::util::Xoshiro256 a(7), b(7), c(8);
  bool all_same = true;
  for (int i = 0; i < 100; ++i) {
    const auto x = a.next_u64();
    ASSERT_EQ(x, b.next_u64());
    if (x != c.next_u64()) all_same = false;
  }
  EXPECT_FALSE(all_same);
  for (int i = 0; i < 1000; ++i) ASSERT_LT(a.next_below(17), 17u);
  EXPECT_EQ(a.next_below(0), 0u);
  EXPECT_EQ(a.next_below(1), 0u);
}

TEST(Util, LinearFitRecoversExactLine) {
  std::vector<double> xs, ys;
  for (int i = 1; i <= 10; ++i) {
    xs.push_back(i);
    ys.push_back(3.5 * i + 2.0);
  }
  const auto fit = spr::util::fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 3.5, 1e-9);
  EXPECT_NEAR(fit.intercept, 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Util, SamplesOrderStatistics) {
  spr::util::Samples s;
  for (const double v : {5.0, 1.0, 3.0, 2.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  spr::util::Samples even;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) even.add(v);
  EXPECT_DOUBLE_EQ(even.median(), 2.5);
}

TEST(Util, Formatting) {
  EXPECT_EQ(spr::util::fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(spr::util::fmt_ns(500), "500 ns");
  EXPECT_EQ(spr::util::fmt_ns(1500), "1.50 us");
  EXPECT_EQ(spr::util::fmt_ns(2.5e6), "2.50 ms");
  EXPECT_EQ(spr::util::fmt_ns(3.2e9), "3.20 s");
}

TEST(Util, TablePrintsAlignedColumns) {
  spr::util::Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-+-"), std::string::npos);
}

// The spin lock (shadow shards, SP-hybrid segments, TwoLevelOm groups): a
// plain (non-atomic) counter stays exact only if lock/unlock exclude each
// other, and under TSan a missing acquire or release shows up as a data
// race on the counter. Odd threads take the lock through try_lock.
TEST(Util, SpinLockCountsExactly) {
  constexpr int kThreads = 4;
  constexpr int kIncrements = 200000;
  spr::spin_lock mu;
  long counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIncrements; ++i) {
        if (t % 2 == 0) {
          mu.lock();
        } else {
          while (!mu.try_lock()) std::this_thread::yield();
        }
        ++counter;
        mu.unlock();
      }
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIncrements);

  // try_lock fails while another thread holds the lock, and succeeds once
  // it is released.
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    mu.lock();
    held.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
    mu.unlock();
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();
  EXPECT_FALSE(mu.try_lock());
  release.store(true, std::memory_order_release);
  holder.join();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(Hybrid, ChecksumStableAcrossModes) {
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_balanced(8, 8));
  ExecOptions o;
  o.queries_per_leaf = 0;
  o.mode = Mode::kPlain;
  const auto plain = spr::hybrid::run_parallel(t, o);
  o.mode = Mode::kHybrid;
  const auto hybrid = spr::hybrid::run_parallel(t, o);
  EXPECT_EQ(plain.checksum, hybrid.checksum);
}

}  // namespace
