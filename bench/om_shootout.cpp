// OM backend shootout: the two om::Backend implementations (mutex-serial
// oracle, two-level paper structure) under identical workloads at 1, 2
// and 4 threads. Three measured phases per (backend, P) cell:
//   insert  P writer threads, each growing its own region by inserting
//           after a random item it already owns (disjoint pivots, the
//           steal protocol's pattern); total insert count is fixed
//           across P so cells are comparable.
//   query   P reader threads issuing random-pair precedes() over the
//           built list at quiescence.
//   mixed   1 writer keeps inserting while P-1 readers hammer precedes()
//           on a pre-built snapshot — the on-the-fly regime the race
//           detectors live in.
// Every cell is guarded by an (untimed) postcondition sweep — each
// thread's items must sit strictly between its boundary pivots — that
// abort()s on a violation, so a throughput number from a corrupted order
// is impossible and CI runs the binary once as a 4-thread order check.
// Emits machine-readable `#METRIC {...}` lines for scripts/bench.sh.
//
// Hardware honesty: on a 1-core container every P > 1 row is
// oversubscribed — per-thread rates drop and the interesting columns are
// lock_waits and query retries (coordination), not speedup.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "om/backend.hpp"
#include "om/concurrent_om.hpp"
#include "om/two_level_om.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

namespace {

constexpr std::uint64_t kInsertTotal = 120000;  ///< fixed across P
constexpr std::uint64_t kQueryTotal = 200000;   ///< fixed across P
constexpr std::uint64_t kMixedInserts = 20000;  ///< writer ops in `mixed`

std::atomic<std::uint64_t> g_checksum{0};  ///< defeats dead-code elimination

void metric_line(const char* backend, unsigned threads, const char* phase,
                 double elapsed_s, std::uint64_t ops, std::uint64_t lock_waits,
                 std::uint64_t query_retries, std::uint64_t extra_ops,
                 std::size_t memory_bytes) {
  std::cout << "#METRIC {\"bench\":\"om_shootout\",\"backend\":\"" << backend
            << "\",\"threads\":" << threads << ",\"phase\":\"" << phase
            << "\",\"elapsed_s\":" << elapsed_s << ",\"ops\":" << ops
            << ",\"ops_per_s\":" << (elapsed_s > 0 ? ops / elapsed_s : 0)
            << ",\"lock_waits\":" << lock_waits
            << ",\"query_retries\":" << query_retries
            << ",\"reader_queries\":" << extra_ops
            << ",\"memory_bytes\":" << memory_bytes << "}\n";
}

template <typename B>
  requires spr::om::Backend<B>
void run_backend(unsigned threads, spr::util::Table& table) {
  B om;
  using Item = typename B::Item;

  // Serially seeded boundary pivots: thread t owns the open window
  // (pivots[t], pivots[t+1]).
  std::vector<Item*> pivots;
  Item* cur = om.base();
  for (unsigned t = 0; t < threads; ++t)
    pivots.push_back(cur = om.insert_after(cur));

  // -- insert phase ---------------------------------------------------
  const std::uint64_t per_thread = kInsertTotal / threads;
  std::vector<std::vector<Item*>> own(threads);
  {
    std::vector<std::thread> ws;
    const spr::util::Stopwatch sw;
    for (unsigned t = 0; t < threads; ++t) {
      ws.emplace_back([&, t] {
        spr::util::Xoshiro256 rng(100 + t);
        auto& mine = own[t];
        mine.reserve(per_thread);
        mine.push_back(om.insert_after(pivots[t]));
        for (std::uint64_t i = 1; i < per_thread; ++i)
          mine.push_back(
              om.insert_after(mine[rng.next_below(mine.size())]));
      });
    }
    for (auto& w : ws) w.join();
    const double el = sw.elapsed_s();
    metric_line(B::kName, threads, "insert", el, per_thread * threads,
                om.lock_waits(), om.query_retries(), 0, om.memory_bytes());
    table.add_row({B::kName, std::to_string(threads), "insert",
                   spr::util::fmt_double(per_thread * threads / el / 1e6, 2) +
                       " Mop/s",
                   std::to_string(om.lock_waits()),
                   std::to_string(om.query_retries()),
                   spr::util::fmt_double(
                       static_cast<double>(om.memory_bytes()) / (1 << 20), 1) +
                       " MiB"});
  }

  // Postcondition sweep (untimed): every item confined to its window.
  for (unsigned t = 0; t < threads; ++t) {
    for (std::size_t i = 0; i < own[t].size(); i += 97) {
      Item* it = own[t][i];
      if (!om.precedes(pivots[t], it) ||
          (t + 1 < threads && !om.precedes(it, pivots[t + 1]))) {
        std::cerr << B::kName << ": ORDER CORRUPTION at P=" << threads
                  << "\n";
        std::abort();
      }
    }
  }

  std::vector<Item*> all(pivots);
  for (auto& v : own) all.insert(all.end(), v.begin(), v.end());

  // -- query phase ----------------------------------------------------
  {
    const std::uint64_t before = om.query_retries();
    std::vector<std::thread> rs;
    const spr::util::Stopwatch sw;
    for (unsigned t = 0; t < threads; ++t) {
      rs.emplace_back([&, t] {
        spr::util::Xoshiro256 rng(200 + t);
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < kQueryTotal / threads; ++i) {
          const Item* a = all[rng.next_below(all.size())];
          const Item* b = all[rng.next_below(all.size())];
          acc += om.precedes(a, b) ? 1 : 0;
        }
        g_checksum.fetch_add(acc, std::memory_order_relaxed);
      });
    }
    for (auto& r : rs) r.join();
    const double el = sw.elapsed_s();
    const std::uint64_t ops = kQueryTotal / threads * threads;
    metric_line(B::kName, threads, "query", el, ops, om.lock_waits(),
                om.query_retries() - before, 0, om.memory_bytes());
    table.add_row(
        {B::kName, std::to_string(threads), "query",
         spr::util::fmt_ns(el * 1e9 * threads / static_cast<double>(ops)) +
             "/op",
         std::to_string(om.lock_waits()),
         std::to_string(om.query_retries() - before), ""});
  }

  // -- mixed phase ----------------------------------------------------
  {
    const std::uint64_t waits_before = om.lock_waits();
    const std::uint64_t retries_before = om.query_retries();
    std::atomic<bool> done{false};
    std::atomic<unsigned> ready{0};
    std::atomic<std::uint64_t> reader_queries{0};
    std::vector<std::thread> rs;
    const spr::util::Stopwatch sw;
    for (unsigned t = 1; t < threads; ++t) {
      rs.emplace_back([&, t] {
        spr::util::Xoshiro256 rng(300 + t);
        std::uint64_t n = 0;
        std::uint64_t acc = 0;
        ready.fetch_add(1, std::memory_order_release);
        while (!done.load(std::memory_order_acquire)) {
          const Item* a = all[rng.next_below(all.size())];
          const Item* b = all[rng.next_below(all.size())];
          acc += om.precedes(a, b) ? 1 : 0;
          ++n;
        }
        reader_queries.fetch_add(n, std::memory_order_relaxed);
        g_checksum.fetch_add(acc, std::memory_order_relaxed);
      });
    }
    // Don't let the writer outrun reader-thread startup, or short cells
    // measure an empty read side.
    while (ready.load(std::memory_order_acquire) + 1 < threads)
      std::this_thread::yield();
    {
      spr::util::Xoshiro256 rng(400);
      auto& mine = own[0];
      for (std::uint64_t i = 0; i < kMixedInserts; ++i)
        mine.push_back(om.insert_after(mine[rng.next_below(mine.size())]));
    }
    done.store(true, std::memory_order_release);
    for (auto& r : rs) r.join();
    const double el = sw.elapsed_s();
    metric_line(B::kName, threads, "mixed", el, kMixedInserts,
                om.lock_waits() - waits_before,
                om.query_retries() - retries_before, reader_queries.load(),
                om.memory_bytes());
    table.add_row(
        {B::kName, std::to_string(threads), "mixed",
         spr::util::fmt_double(kMixedInserts / el / 1e6, 2) + " Mop/s",
         std::to_string(om.lock_waits() - waits_before),
         std::to_string(om.query_retries() - retries_before),
         std::to_string(reader_queries.load()) + " reads"});
  }
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "OM backend shootout — " << kInsertTotal << " inserts, "
            << kQueryTotal << " queries, mixed = " << kMixedInserts
            << " inserts vs P-1 readers (totals fixed across P)\n"
            << "hardware_concurrency=" << hw
            << (hw <= 1 ? "  [1-core host: P>1 rows are oversubscribed; "
                          "watch coordination columns, not speedup]\n"
                        : "\n");
  spr::util::Table table({"backend", "P", "phase", "rate", "lock waits",
                          "qry retries", "notes"});
  for (const unsigned threads : {1u, 2u, 4u}) {
    run_backend<spr::om::ConcurrentOrderList>(threads, table);
    run_backend<spr::om::TwoLevelOm>(threads, table);
  }
  table.print(std::cout);
  std::cout << "\n(checksum " << g_checksum
            << ")\nShape check: two-level insert waits stay near zero once "
               "groups spread the writers out;\nthe mutex-serial oracle "
               "serializes every insert behind one lock.\n";
  return 0;
}
