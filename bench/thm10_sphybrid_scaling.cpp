// Theorem 10 reproduction: SP-hybrid executes a fork-join program with n
// threads, T1 work and critical path Tinf in O((T1/P + P*Tinf) lg n)
// expected time on P processors, with O(P*Tinf) steals.
//
// This harness drives the REAL work-stealing executor: per-worker
// Chase-Lev deques, trace-local SP-bags, and global order-maintenance
// insertions only on steals. Every reported quantity is measured from the
// run (no modeled counters):
//   steals/splits   from the deques' successful steal CASes,
//   OM ins          the segment counts (3 insertions per trace split),
//   lock wait       time inside locked global sections,
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

#include <iostream>
#include <string>
#include <thread>

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

ExecResult best_of(const spr::tree::ParseTree& t, const ExecOptions& opts,
                   int reps) {
  ExecResult best;
  best.elapsed_s = 1e30;
  for (int r = 0; r < reps; ++r) {
    ExecResult res = spr::hybrid::run_parallel(t, opts);
    // Keep the fastest run's timing but the SUM-like counters of that
    // same run, so every row is internally consistent.
    if (res.elapsed_s < best.elapsed_s) best = res;
  }
  return best;
}

void metric_line(const std::string& bench, const std::string& name,
                 unsigned workers, const ExecResult& r, bool checksum_ok) {
  std::cout << "#METRIC {\"bench\":\"" << bench << "\",\"tree\":\"" << name
            << "\",\"workers\":" << workers << ",\"elapsed_s\":" << r.elapsed_s
            << ",\"steals\":" << r.steals << ",\"splits\":" << r.splits
            << ",\"traces\":" << r.traces << ",\"om_inserts\":" << r.om_inserts
            << ",\"lock_wait_ns\":" << r.lock_wait_ns
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
                          "speedup(hybrid)", "steals", "P*Tinf",
                          "traces(<=4s+1)", "OM ins(=3s)", "lock wait",
                          "qry retries", "answers"});
  double hybrid_p1 = 0;
  bool all_ok = true;
  for (const unsigned workers : {1u, 2u, 4u}) {
    ExecOptions plain;
    plain.workers = workers;
    plain.mode = Mode::kPlain;
    const ExecResult rp = best_of(t, plain, 3);

    ExecOptions hyb;
    hyb.workers = workers;
    hyb.mode = Mode::kHybrid;
    hyb.queries_per_leaf = 2;
    const ExecResult rh = best_of(t, hyb, 3);
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
         std::to_string(workers * m.span),
         std::to_string(rh.traces) + (traces_ok ? "" : " VIOLATION"),
         std::to_string(rh.om_inserts) + (inserts_ok ? "" : " VIOLATION"),
         spr::util::fmt_ns(static_cast<double>(rh.lock_wait_ns)),
         std::to_string(rh.query_retries),
         checksum_ok ? "match" : "MISMATCH"});
    metric_line("thm10", name, workers, rh, checksum_ok);
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
  // Nesting depth n: at P=1 the whole run is one segment, so this row
  // measures the local tier's relabel cost under deep nesting.
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
