// Section 3 reproduction: why SP-hybrid exists. A naive parallel SP-order
// shares one order-maintenance structure and takes a global lock around
// every insertion — Theta(T1) locked operations, so waiting can expand the
// apparent work toward Theta(P*T1). SP-hybrid performs locked insertions
// only on steals — O(P*Tinf) of them — pushing everything else into
// lock-free local-tier work.
//
// The harness runs both modes on the REAL work-stealing executor and
// reports total time, the measured number of locked global insertions,
// and measured time spent in locked global sections (the apparent-work
// inflation). Emits `#METRIC {...}` lines for scripts/bench.sh. Exits
// non-zero unless every run holds the counted identities (naive: 2 locked
// inserts per internal node; hybrid: 3 per split) and every run's
// checksum equals the serial reference's for the same seed.

#include <cstdint>
#include <iostream>
#include <string>

#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "sphybrid/executor.hpp"
#include "sptree/metrics.hpp"
#include "util/table.hpp"

namespace {

using spr::hybrid::ExecOptions;
using spr::hybrid::ExecResult;
using spr::hybrid::Mode;

constexpr std::uint64_t kSeeds = 3;

ExecOptions options(Mode mode, unsigned workers, std::uint64_t seed) {
  ExecOptions o;
  o.workers = workers;
  o.mode = mode;
  o.queries_per_leaf = 1;
  o.seed = seed;
  return o;
}

/// Best of one run per seed; `ok` turns false if any run breaks its
/// counter identity or disagrees with the serial reference checksum.
ExecResult run(const spr::tree::ParseTree& t, Mode mode, unsigned workers,
               const std::uint64_t (&reference)[kSeeds], bool& ok) {
  const std::uint64_t internal = t.node_count() - t.leaf_count();
  ExecResult best;
  best.elapsed_s = 1e30;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ExecResult r = spr::hybrid::run_parallel(t, options(mode, workers, seed));
    const bool inserts_ok = mode == Mode::kNaive
                                ? r.om_inserts == 2 * internal
                                : r.om_inserts == 3 * r.splits;
    const bool checksum_ok = r.checksum == reference[seed - 1];
    if (!inserts_ok || !checksum_ok) {
      std::cerr << "naive_vs_hybrid: mode="
                << (mode == Mode::kNaive ? "naive" : "hybrid")
                << " P=" << workers << " seed=" << seed
                << (inserts_ok ? "" : " om_inserts VIOLATION")
                << (checksum_ok ? "" : " checksum MISMATCH")
                << "\n";
      ok = false;
    }
    if (r.elapsed_s < best.elapsed_s) best = std::move(r);
  }
  return best;
}

}  // namespace

int main() {
  const spr::tree::ParseTree t =
      spr::fj::lower_to_parse_tree(spr::fj::make_fib(22, 16));
  const auto m = spr::tree::compute_metrics(t);
  std::cout << "Section 3 — naive locked parallel SP-order vs SP-hybrid\n"
            << "fib(22): n=" << m.threads << " threads, T1=" << m.work
            << ", Tinf=" << m.span << ", 1 query/thread\n\n";
  std::uint64_t reference[kSeeds] = {};
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed)
    reference[seed - 1] = spr::hybrid::run_parallel(
                          t, options(Mode::kSerialReference, 1, seed))
                          .checksum;
  bool ok = true;
  spr::util::Table table({"mode", "P", "time", "locked OM inserts",
                          "lock wait total", "lock wait / insert",
                          "steals"});
  for (const unsigned workers : {1u, 2u, 4u}) {
    for (const Mode mode : {Mode::kNaive, Mode::kHybrid}) {
      const ExecResult r = run(t, mode, workers, reference, ok);
      // Both counts are measured by the engine: naive pays 2 locked item
      // inserts per internal node, hybrid 3 per trace split.
      const std::uint64_t inserts = r.om_inserts;
      const double per_insert =
          inserts == 0 ? 0
                       : static_cast<double>(r.lock_wait_ns) /
                             static_cast<double>(inserts);
      table.add_row({mode == Mode::kNaive ? "naive" : "sp-hybrid",
                     std::to_string(workers),
                     spr::util::fmt_ns(r.elapsed_s * 1e9),
                     std::to_string(inserts),
                     spr::util::fmt_ns(static_cast<double>(r.lock_wait_ns)),
                     spr::util::fmt_double(per_insert, 1) + " ns",
                     std::to_string(r.steals)});
      std::cout << "#METRIC {\"bench\":\"naive_vs_hybrid\",\"mode\":\""
                << (mode == Mode::kNaive ? "naive" : "hybrid")
                << "\",\"workers\":" << workers
                << ",\"elapsed_s\":" << r.elapsed_s
                << ",\"om_inserts\":" << r.om_inserts
                << ",\"lock_wait_ns\":" << r.lock_wait_ns
                << ",\"steals\":" << r.steals << "}\n";
    }
  }
  table.print(std::cout);
  std::cout << "\nShape check (paper): naive's locked insertions scale with "
               "T1 and its lock\nwaiting grows with P; sp-hybrid's locked "
               "insertions scale with steals\n(O(P*Tinf) << T1) and its "
               "lock waiting stays near zero.\n";
  if (!ok) {
    std::cerr << "naive_vs_hybrid: a run failed its check (VIOLATION or "
                 "MISMATCH)\n";
    return 1;
  }
  return 0;
}
