// Theorem 10 reproduction: SP-hybrid executes a fork-join program with n
// threads, T1 work and critical path Tinf in O((T1/P + P*Tinf) lg n)
// expected time on P processors, with O(P*Tinf) steals.
//
// This harness drives the REAL work-stealing executor: per-worker
// Chase-Lev deques, trace-local SP-bags, and global order-maintenance
// insertions only on steals. Every reported quantity is measured from the
// run (no modeled counters):
//   steals/splits   from the deques' successful steal CASes (P>1 cells
//                   also give min/median/max steals over the repetitions,
//                   so a repetition without a steal storm shows),
//   OM ins          the segment counts (3 insertions per trace split),
//   lock wait       time inside the thieves' locked split sections, also
//                   per steal,
//   walk/steal      S-ancestors a split visited while re-pointing sets,
//   qry retries     failed lock-free seqlock query attempts,
//   traces          trace ids the engine minted, checked against Section
//                   5's bound of 4*steals + 1.
// Each hybrid run's checksum is cross-checked against the serial
// reference executor, so a scaling number from a wrong answer is
// impossible. Exits non-zero if any cell is marked VIOLATION or
// MISMATCH. Emits machine-readable `#METRIC {...}` JSON lines for
// scripts/bench.sh.
//
// Hardware honesty: speedup only appears when the host really has >1
// core. On a 1-core container every P > 1 row is oversubscribed —
// expect slowdown there, not speedup; the point of those rows is that
// steals/splits/OM-inserts stay tiny and the answers stay exact.

#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "sphybrid/executor.hpp"
#include "sptree/metrics.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using spr::hybrid::ExecOptions;
using spr::hybrid::ExecResult;
using spr::hybrid::Mode;

struct Cell {
  ExecResult best;                   ///< the fastest repetition
  std::vector<std::uint64_t> steals;  ///< every repetition's, sorted
};

Cell best_of(const spr::tree::ParseTree& t, const ExecOptions& opts,
             int reps) {
  Cell cell;
  cell.best.elapsed_s = 1e30;
  for (int r = 0; r < reps; ++r) {
    ExecResult res = spr::hybrid::run_parallel(t, opts);
    cell.steals.push_back(res.steals);
    // Keep the fastest run's timing but the SUM-like counters of that
    // same run, so every row is internally consistent.
    if (res.elapsed_s < cell.best.elapsed_s) cell.best = res;
  }
  std::sort(cell.steals.begin(), cell.steals.end());
  return cell;
}

double per_steal(std::uint64_t total, const ExecResult& r) {
  return r.steals == 0 ? 0.0
                       : static_cast<double>(total) /
                             static_cast<double>(r.steals);
}

void metric_line(const std::string& bench, const std::string& name,
                 unsigned workers, const Cell& c, bool checksum_ok) {
  const ExecResult& r = c.best;
  std::cout << "#METRIC {\"bench\":\"" << bench << "\",\"tree\":\"" << name
            << "\",\"workers\":" << workers << ",\"elapsed_s\":" << r.elapsed_s
            << ",\"steals\":" << r.steals << ",\"splits\":" << r.splits
            << ",\"steals_min\":" << c.steals.front()
            << ",\"steals_median\":" << c.steals[c.steals.size() / 2]
            << ",\"steals_max\":" << c.steals.back()
            << ",\"traces\":" << r.traces << ",\"om_inserts\":" << r.om_inserts
            << ",\"lock_wait_ns\":" << r.lock_wait_ns
            << ",\"lock_wait_ns_per_steal\":" << per_steal(r.lock_wait_ns, r)
            << ",\"repoint_walk_per_steal\":" << per_steal(r.repoint_walk, r)
            << ",\"query_retries\":" << r.query_retries
            << ",\"fast_queries\":" << r.fast_queries
            << ",\"queries\":" << r.queries
            << ",\"checksum_ok\":" << (checksum_ok ? "true" : "false")
            << "}\n";
}

/// Prints one tree's table; returns false if any cell failed a check.
bool bench_tree(const std::string& name, const spr::tree::ParseTree& t) {
  const auto m = spr::tree::compute_metrics(t);
  std::cout << "\n-- " << name << ": n=" << m.threads << ", T1=" << m.work
            << ", Tinf=" << m.span << ", T1/Tinf=" << m.work / m.span
            << " --\n";

  // Serial oracle: the answer every parallel run must reproduce.
  ExecOptions oracle;
  oracle.mode = Mode::kSerialReference;
  oracle.queries_per_leaf = 2;
  const ExecResult serial = spr::hybrid::run_parallel(t, oracle);

  spr::util::Table table({"P", "plain T_P", "hybrid T_P", "overhead",
                          "speedup(hybrid)", "steals", "min/med/max",
                          "P*Tinf", "traces(<=4s+1)", "OM ins(=3s)",
                          "lock wait", "wait/steal", "walk/steal",
                          "qry retries", "answers"});
  double hybrid_p1 = 0;
  bool all_ok = true;
  for (const unsigned workers : {1u, 2u, 4u}) {
    ExecOptions plain;
    plain.workers = workers;
    plain.mode = Mode::kPlain;
    const ExecResult rp = best_of(t, plain, 3).best;

    ExecOptions hyb;
    hyb.workers = workers;
    hyb.mode = Mode::kHybrid;
    hyb.queries_per_leaf = 2;
    const Cell ch = best_of(t, hyb, 3);
    const ExecResult& rh = ch.best;
    if (workers == 1) hybrid_p1 = rh.elapsed_s;

    const bool traces_ok = rh.traces <= 4 * rh.steals + 1;
    const bool inserts_ok = rh.om_inserts == 3 * rh.splits;
    const bool checksum_ok = rh.checksum == serial.checksum;
    all_ok = all_ok && traces_ok && inserts_ok && checksum_ok;
    table.add_row(
        {std::to_string(workers), spr::util::fmt_ns(rp.elapsed_s * 1e9),
         spr::util::fmt_ns(rh.elapsed_s * 1e9),
         spr::util::fmt_double(rh.elapsed_s / rp.elapsed_s, 2) + "x",
         spr::util::fmt_double(hybrid_p1 / rh.elapsed_s, 2) + "x",
         std::to_string(rh.steals),
         workers == 1 ? "-"
                      : std::to_string(ch.steals.front()) + "/" +
                            std::to_string(ch.steals[ch.steals.size() / 2]) +
                            "/" + std::to_string(ch.steals.back()),
         std::to_string(workers * m.span),
         std::to_string(rh.traces) + (traces_ok ? "" : " VIOLATION"),
         std::to_string(rh.om_inserts) + (inserts_ok ? "" : " VIOLATION"),
         spr::util::fmt_ns(static_cast<double>(rh.lock_wait_ns)),
         spr::util::fmt_ns(per_steal(rh.lock_wait_ns, rh)),
         spr::util::fmt_double(per_steal(rh.repoint_walk, rh), 2),
         std::to_string(rh.query_retries),
         checksum_ok ? "match" : "MISMATCH"});
    metric_line("thm10", name, workers, ch, checksum_ok);
  }
  table.print(std::cout);
  return all_ok;
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "Theorem 10 — SP-hybrid: O((T1/P + P*Tinf) lg n) expected "
               "time, O(P*Tinf) steals\n"
            << "(real work-stealing executor; 2 SP queries per thread; "
               "best of 3 runs per cell)\n"
            << "hardware_concurrency=" << hw
            << (hw <= 1 ? "  [1-core host: P>1 rows are oversubscribed; "
                          "no speedup is physically possible]\n"
                        : "\n");
  bool ok = bench_tree("fib(24), 64 work/thread",
                       spr::fj::lower_to_parse_tree(spr::fj::make_fib(24, 64)));
  ok = bench_tree("balanced(15), 128 work/thread",
                  spr::fj::lower_to_parse_tree(
                      spr::fj::make_balanced(15, 128))) &&
       ok;
  // Nesting depth n: a spawn chain, so at P>1 thieves keep stealing from
  // one trace and every split inserts at the same global-tier hotspot.
  ok = bench_tree("loop_spawn(2^15), 1 work/thread",
                  spr::fj::lower_to_parse_tree(
                      spr::fj::make_loop_spawn(1u << 15))) &&
       ok;
  std::cout
      << "\nShape check (paper): hybrid overhead vs plain is a modest "
         "constant factor at\nfixed P (the lg n factor); measured steals "
         "stay well below the O(P*Tinf)\nbound and global OM inserts are "
         "exactly 3 per split; hybrid speeds up with P\non ample "
         "parallelism (T1/Tinf >> P) when the host has that many cores.\n";
  if (!ok) {
    std::cerr << "thm10: a cell failed its check (VIOLATION or MISMATCH)\n";
    return 1;
  }
  return 0;
}
