// Theorem 10 reproduction: SP-hybrid executes a fork-join program with n
// threads, T1 work and critical path Tinf in O((T1/P + P*Tinf) lg n)
// expected time on P processors, with O(P*Tinf) steals. Beside it runs
// Section 3's straw man, the naive parallel SP-order that takes a global
// lock around every OM insertion, on the same work-stealing engine.
//
// This harness drives the REAL work-stealing executor: per-worker
// Chase-Lev deques, trace-local SP-bags, and global order-maintenance
// insertions only on steals. Every reported quantity is measured from the
// run (no modeled counters):
//   steals/splits   from the deques' successful steal CASes (P>1 cells
//                   also give min/median/max steals over the repetitions,
//                   so a repetition without a steal storm shows),
//   OM ins          the global tier's item counts (3 insertions per
//                   trace split),
//   lock wait       time inside the thieves' locked split sections, also
//                   per steal,
//   walk/steal      S-ancestors a split visited while re-pointing sets,
//   qry retries     failed global-tier seqlock validations.
// A steal mints the only new trace, so a run has steals + 1 traces,
// within Section 5's bound of 4*steals + 1.
// Each row also carries its control, kPlain's speedup from the same run.
// The naive table under each tree gives kNaive's time against kHybrid's,
// its locked OM insertions (2 per internal node, so Theta(T1) of them)
// and the time spent waiting for and holding that lock.
//
// A last table runs race detection (kHybrid with detect_races) on a racy
// stencil, whose phases are right-deep P-chains of chunks: thieves keep
// splitting one trace, so this is the row where most SP queries miss
// SP-bags' set-root word and take the item-pair path. Its rows give
// T_P, kPlain's speedup from the same run, steals, split time, queries,
// the share answered by SP-bags alone and failed seqlock validations;
// every repetition's race count must equal the serial reference's.
//
// Every repetition's checksum is cross-checked against the serial
// reference executor, so a scaling number from a wrong answer is
// impossible. Exits non-zero if any repetition breaks its counter
// identity, checksum or race count. Emits machine-readable
// `#METRIC {...}` JSON lines for scripts/bench.sh.

#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "sphybrid/executor.hpp"
#include "sptree/metrics.hpp"
#include "util/table.hpp"

namespace {

using spr::hybrid::ExecOptions;
using spr::hybrid::ExecResult;
using spr::hybrid::Mode;

struct Cell {
  ExecResult best;                   ///< the fastest repetition
  std::vector<std::uint64_t> steals;  ///< every repetition's, sorted
  bool all_ok = true;                ///< every repetition passed its check
};

template <typename Check>
Cell best_of(const spr::tree::ParseTree& t, Mode mode, unsigned workers,
             Check ok, bool detect = false) {
  ExecOptions opts;
  opts.workers = workers;
  opts.mode = mode;
  opts.queries_per_leaf = mode == Mode::kPlain ? 0 : 2;
  opts.detect_races = detect;
  Cell cell;
  cell.best.elapsed_s = 1e30;
  for (int r = 0; r < 3; ++r) {
    ExecResult res = spr::hybrid::run_parallel(t, opts);
    cell.steals.push_back(res.steals);
    cell.all_ok = ok(res) && cell.all_ok;
    // Keep the fastest run's timing but the SUM-like counters of that
    // same run, so every row is internally consistent.
    if (res.elapsed_s < cell.best.elapsed_s) cell.best = res;
  }
  std::sort(cell.steals.begin(), cell.steals.end());
  return cell;
}

double ratio(std::uint64_t total, std::uint64_t count) {
  return count == 0 ? 0.0
                    : static_cast<double>(total) / static_cast<double>(count);
}

/// Starts a `#METRIC` line with the fields every row has; the caller
/// appends its own fields and closes the object.
std::ostream& metric_head(const std::string& tree, const char* mode,
                          unsigned workers, const ExecResult& r) {
  return std::cout << "#METRIC {\"bench\":\"thm10\",\"tree\":\"" << tree
                   << "\",\"mode\":\"" << mode << "\",\"workers\":" << workers
                   << ",\"elapsed_s\":" << r.elapsed_s
                   << ",\"steals\":" << r.steals
                   << ",\"om_inserts\":" << r.om_inserts
                   << ",\"lock_wait_ns\":" << r.lock_wait_ns;
}

bool report_cell(const std::string& tree, const char* mode,
                 unsigned workers, const Cell& c) {
  if (!c.all_ok)
    std::cerr << "thm10: " << tree << ", " << mode << " P=" << workers
              << ": a repetition failed its check\n";
  return c.all_ok;
}

/// Prints one tree's tables; returns false if any repetition failed a
/// check.
bool bench_tree(const std::string& name, const spr::tree::ParseTree& t) {
  const auto m = spr::tree::compute_metrics(t);
  const std::uint64_t internal = t.node_count() - t.leaf_count();
  std::cout << "\n-- " << name << ": n=" << m.threads << ", T1=" << m.work
            << ", Tinf=" << m.span << ", T1/Tinf=" << m.work / m.span
            << " --\n";

  // Serial oracle: the answer every parallel run must reproduce.
  ExecOptions oracle;
  oracle.mode = Mode::kSerialReference;
  oracle.queries_per_leaf = 2;
  const std::uint64_t reference =
      spr::hybrid::run_parallel(t, oracle).checksum;

  const auto checksum_ok = [&](const ExecResult& r) {
    return r.checksum == reference;
  };
  const auto splits_ok = [](const ExecResult& r) {
    return r.om_inserts == 3 * r.splits;
  };
  // Section 3: one locked insertion into each of the two orders per
  // internal node, whatever the steals.
  const auto naive_inserts_ok = [&](const ExecResult& r) {
    return r.om_inserts == 2 * internal;
  };

  spr::util::Table table({"P", "plain T_P", "hybrid T_P", "overhead",
                          "speedup(plain)", "speedup(hybrid)", "steals",
                          "min/med/max", "P*Tinf", "OM ins(=3s)",
                          "lock wait", "wait/steal", "walk/steal",
                          "qry retries", "answers"});
  spr::util::Table naive_table({"P", "naive T_P", "naive/hybrid",
                                "locked OM ins(=2*internal)",
                                "lock wait total", "wait/insert", "steals",
                                "answers"});
  double plain_p1 = 0;
  double hybrid_p1 = 0;
  bool all_ok = true;
  for (const unsigned workers : {1u, 2u, 4u}) {
    const ExecResult rp =
        best_of(t, Mode::kPlain, workers, [](const ExecResult&) {
          return true;
        }).best;
    const Cell ch = best_of(t, Mode::kHybrid, workers, [&](const auto& r) {
      return splits_ok(r) && checksum_ok(r);
    });
    const Cell cn = best_of(t, Mode::kNaive, workers, [&](const auto& r) {
      return naive_inserts_ok(r) && checksum_ok(r);
    });
    const ExecResult& rh = ch.best;
    const ExecResult& rn = cn.best;
    if (workers == 1) {
      plain_p1 = rp.elapsed_s;
      hybrid_p1 = rh.elapsed_s;
    }
    all_ok = report_cell(name, "hybrid", workers, ch) && all_ok;
    all_ok = report_cell(name, "naive", workers, cn) && all_ok;

    const double plain_speedup = plain_p1 / rp.elapsed_s;
    const double speedup = hybrid_p1 / rh.elapsed_s;
    table.add_row(
        {std::to_string(workers), spr::util::fmt_ns(rp.elapsed_s * 1e9),
         spr::util::fmt_ns(rh.elapsed_s * 1e9),
         spr::util::fmt_double(rh.elapsed_s / rp.elapsed_s, 2) + "x",
         spr::util::fmt_double(plain_speedup, 2) + "x",
         spr::util::fmt_double(speedup, 2) + "x", std::to_string(rh.steals),
         workers == 1 ? "-"
                      : std::to_string(ch.steals.front()) + "/" +
                            std::to_string(ch.steals[ch.steals.size() / 2]) +
                            "/" + std::to_string(ch.steals.back()),
         std::to_string(workers * m.span),
         std::to_string(rh.om_inserts) + (splits_ok(rh) ? "" : " VIOLATION"),
         spr::util::fmt_ns(static_cast<double>(rh.lock_wait_ns)),
         spr::util::fmt_ns(ratio(rh.lock_wait_ns, rh.steals)),
         spr::util::fmt_double(ratio(rh.repoint_walk, rh.steals), 2),
         std::to_string(rh.query_retries),
         checksum_ok(rh) ? "match" : "MISMATCH"});
    metric_head(name, "hybrid", workers, rh)
        << ",\"splits\":" << rh.splits
        << ",\"steals_min\":" << ch.steals.front()
        << ",\"steals_median\":" << ch.steals[ch.steals.size() / 2]
        << ",\"steals_max\":" << ch.steals.back()
        << ",\"steals_per_p_tinf\":"
        << ratio(rh.steals, std::uint64_t{workers} * m.span)
        << ",\"lock_wait_ns_per_steal\":" << ratio(rh.lock_wait_ns, rh.steals)
        << ",\"repoint_walk_per_steal\":" << ratio(rh.repoint_walk, rh.steals)
        << ",\"query_retries\":" << rh.query_retries
        << ",\"fast_queries\":" << rh.fast_queries
        << ",\"queries\":" << rh.queries << ",\"speedup\":" << speedup
        << ",\"plain_speedup\":" << plain_speedup
        << ",\"checksum_ok\":" << (checksum_ok(rh) ? "true" : "false")
        << "}\n";
    naive_table.add_row(
        {std::to_string(workers), spr::util::fmt_ns(rn.elapsed_s * 1e9),
         spr::util::fmt_double(rn.elapsed_s / rh.elapsed_s, 2) + "x",
         std::to_string(rn.om_inserts) +
             (naive_inserts_ok(rn) ? "" : " VIOLATION"),
         spr::util::fmt_ns(static_cast<double>(rn.lock_wait_ns)),
         spr::util::fmt_ns(ratio(rn.lock_wait_ns, rn.om_inserts)),
         std::to_string(rn.steals),
         checksum_ok(rn) ? "match" : "MISMATCH"});
    metric_head(name, "naive", workers, rn)
        << ",\"naive_over_hybrid\":" << rn.elapsed_s / rh.elapsed_s
        << ",\"lock_wait_ns_per_insert\":"
        << ratio(rn.lock_wait_ns, rn.om_inserts)
        << ",\"checksum_ok\":" << (checksum_ok(rn) ? "true" : "false")
        << "}\n";
  }
  table.print(std::cout);
  std::cout << "Section 3 straw man (naive locked SP-order), same tree:\n";
  naive_table.print(std::cout);
  return all_ok;
}

/// Prints the detection table of one tree; returns false if any
/// repetition lost checksum or race-count parity with the serial
/// reference, or broke 3 OM inserts per split.
bool bench_detection(const std::string& name, const spr::tree::ParseTree& t) {
  ExecOptions oracle;
  oracle.mode = Mode::kSerialReference;
  oracle.queries_per_leaf = 2;
  oracle.detect_races = true;
  const ExecResult ref = spr::hybrid::run_parallel(t, oracle);
  std::cout << "\n-- race detection, " << name << ": n=" << t.leaf_count()
            << ", serial reference " << ref.race_count << " races --\n";
  const auto ok = [&](const ExecResult& r) {
    return r.checksum == ref.checksum && r.race_count == ref.race_count &&
           r.om_inserts == 3 * r.splits;
  };

  spr::util::Table table({"P", "plain T_P", "detect T_P", "speedup(plain)",
                          "steals", "lock wait", "queries", "fast/queries",
                          "qry retries", "races", "answers"});
  double plain_p1 = 0;
  bool all_ok = true;
  for (const unsigned workers : {1u, 2u, 4u}) {
    const ExecResult rp =
        best_of(t, Mode::kPlain, workers, [](const ExecResult&) {
          return true;
        }).best;
    const Cell cd = best_of(t, Mode::kHybrid, workers, ok, /*detect=*/true);
    const ExecResult& rd = cd.best;
    if (workers == 1) plain_p1 = rp.elapsed_s;
    all_ok = report_cell(name, "detect", workers, cd) && all_ok;
    const double plain_speedup = plain_p1 / rp.elapsed_s;
    const double fast_ratio = ratio(rd.fast_queries, rd.queries);
    table.add_row({std::to_string(workers),
                   spr::util::fmt_ns(rp.elapsed_s * 1e9),
                   spr::util::fmt_ns(rd.elapsed_s * 1e9),
                   spr::util::fmt_double(plain_speedup, 2) + "x",
                   std::to_string(rd.steals),
                   spr::util::fmt_ns(static_cast<double>(rd.lock_wait_ns)),
                   std::to_string(rd.queries),
                   spr::util::fmt_double(fast_ratio, 4),
                   std::to_string(rd.query_retries),
                   std::to_string(rd.race_count),
                   cd.all_ok ? "match" : "MISMATCH"});
    metric_head(name, "detect", workers, rd)
        << ",\"splits\":" << rd.splits << ",\"queries\":" << rd.queries
        << ",\"fast_queries\":" << rd.fast_queries
        << ",\"fast_query_ratio\":" << fast_ratio
        << ",\"query_retries\":" << rd.query_retries
        << ",\"race_count\":" << rd.race_count
        << ",\"plain_speedup\":" << plain_speedup
        << ",\"all_ok\":" << (cd.all_ok ? "true" : "false") << "}\n";
  }
  table.print(std::cout);
  return all_ok;
}

}  // namespace

int main() {
  std::cout << "Theorem 10 — SP-hybrid: O((T1/P + P*Tinf) lg n) expected "
               "time, O(P*Tinf) steals\n"
            << "(real work-stealing executor; 2 SP queries per thread; "
               "best of 3 runs per cell)\n"
            << "hardware_concurrency=" << std::thread::hardware_concurrency()
            << "\n";
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
  ok = bench_detection("stencil(2^17, 16), racy",
                       spr::fj::lower_to_parse_tree(
                           spr::fj::make_stencil(1u << 17, 16, true))) &&
       ok;
  std::cout
      << "\nShape check (paper): hybrid overhead vs plain is a modest "
         "constant factor at\nfixed P (the lg n factor); measured steals "
         "stay well below the O(P*Tinf)\nbound and global OM inserts are "
         "exactly 3 per split; hybrid speeds up with P\nas plain does on "
         "ample parallelism (T1/Tinf >> P). Section 3: naive's locked\n"
         "insertions scale with T1 and its lock waiting grows with P; "
         "hybrid's scale\nwith steals (O(P*Tinf) << T1).\n";
  if (!ok) {
    std::cerr << "thm10: a cell failed its check (VIOLATION or MISMATCH)\n";
    return 1;
  }
  return 0;
}
