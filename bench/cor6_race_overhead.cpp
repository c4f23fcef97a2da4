// Corollary 6 reproduction: "a determinacy-race detector using SP-order
// runs in O(T1) time" — i.e. the detection slowdown over plain execution
// is a constant factor, independent of program size. SP-bags is the
// Theta(alpha)-per-operation comparison point (Nondeterminator).
//
// The same claim covers the abstract's "more sophisticated" detector:
// ALL-SETS lock-aware data-race detection (Cheng et al. [13]) on the same
// SP backends, whose slowdown must also stay flat in n, since pruned
// histories bound per-access work by the number of distinct lock sets.
// Only the shadow differs, so one plain-execution baseline serves both.
//
// The harness runs the access-carrying kernels at n = 1024*4^k, measures
// plain execution (walk + work + touching every access) and detection
// time per backend, and reports the slowdown factors. Each time is the
// median of 5 interleaved repetitions: the smallest plain baselines are
// 5-20 us, so one run per cell is mostly noise. Every kernel is race-free
// for its detector, and the locked accumulator draws the verdict
// contrast: a determinacy race that is not a data race. Exits non-zero if
// any repetition of a race-free kernel reports a race, the contrast
// fails, or sp-order and sp-bags disagree on the race or query count in
// any repetition. Emits `#METRIC {...}` JSON lines for scripts/bench.sh.

#include <cstdint>
#include <iostream>
#include <string>

#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "race/detector.hpp"
#include "spbags/sp_bags.hpp"
#include "sporder/sp_order.hpp"
#include "sptree/walk.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

namespace {

using spr::race::RaceReport;
using spr::tree::Node;
using spr::tree::ParseTree;
using spr::util::Samples;

constexpr int kReps = 5;

/// Plain execution baseline: spin the work and read every access record,
/// but no shadow memory and no SP maintenance.
struct PlainExec final : spr::tree::WalkVisitor {
  explicit PlainExec(const ParseTree& t) : tree(t) {}
  void visit_leaf(const Node& n) override {
    checksum ^= spr::util::spin_work(n.work);
    for (const auto& a : tree.accesses(n.thread))
      checksum += a.loc + (a.write ? 1 : 0) + a.locks;
  }
  const ParseTree& tree;
  std::uint64_t checksum = 0;
};

double time_plain(const ParseTree& t) {
  PlainExec v(t);
  const spr::util::Stopwatch sw;
  serial_walk(t, v);
  spr::util::do_not_optimize(v.checksum);
  return sw.elapsed_s();
}

RaceReport detect(const ParseTree& t, auto& backend, bool all_sets) {
  return all_sets ? spr::race::detect_lock_races(t, backend)
                  : spr::race::detect_races(t, backend);
}

/// One detection run with a fresh backend; adds its time to `secs`.
template <typename Backend>
RaceReport time_detect(const ParseTree& t, bool all_sets, Samples& secs) {
  Backend backend(t);
  const spr::util::Stopwatch sw;
  const RaceReport r = detect(t, backend, all_sets);
  secs.add(sw.elapsed_s());
  return r;
}

/// Prints one kernel's n-sweep under one detector; returns false if a
/// repetition reports a race (every kernel here is race-free for its
/// detector) or the two backends disagree in one.
bool bench(const std::string& kernel, bool all_sets,
           ParseTree (*make)(std::uint64_t n)) {
  const char* detector = all_sets ? "all-sets" : "determinacy";
  std::cout << "\n-- " << kernel << ", " << detector << " detector --\n";
  spr::util::Table table({"n", "threads", "accesses/thread", "plain",
                          "sp-order", "slowdown", "sp-bags", "slowdown",
                          "SP queries"});
  bool ok = true;
  for (int scale = 0; scale < 4; ++scale) {
    const std::uint64_t n = std::uint64_t{1024} << (2 * scale);
    const ParseTree t = make(n);
    std::uint64_t accesses = 0;
    for (spr::tree::ThreadId u = 0; u < t.leaf_count(); ++u)
      accesses += t.accesses(u).size();
    Samples plain_s, order_s, bags_s;
    RaceReport order, bags;
    for (int rep = 0; rep < kReps; ++rep) {
      plain_s.add(time_plain(t));
      order = time_detect<spr::order::SpOrder>(t, all_sets, order_s);
      bags = time_detect<spr::bags::SpBags>(t, all_sets, bags_s);
      if (order.has_race() || bags.has_race()) {
        std::cerr << "cor6: " << kernel << " n=" << n << " rep " << rep
                  << ": " << detector
                  << " detector reports a race on a race-free kernel\n";
        ok = false;
      }
      if (order.race_count != bags.race_count ||
          order.queries != bags.queries) {
        std::cerr << "cor6: " << kernel << " n=" << n << " rep " << rep
                  << ": sp-order and sp-bags disagree on races or "
                     "queries\n";
        ok = false;
      }
    }
    const double plain = plain_s.median();
    table.add_row(
        {std::to_string(n), std::to_string(t.leaf_count()),
         spr::util::fmt_double(static_cast<double>(accesses) /
                                   static_cast<double>(t.leaf_count()),
                               1),
         spr::util::fmt_ns(plain * 1e9),
         spr::util::fmt_ns(order_s.median() * 1e9),
         spr::util::fmt_double(order_s.median() / plain, 2) + "x",
         spr::util::fmt_ns(bags_s.median() * 1e9),
         spr::util::fmt_double(bags_s.median() / plain, 2) + "x",
         std::to_string(order.queries)});
    const auto metric = [&](const char* backend, const RaceReport& r,
                            const Samples& secs) {
      std::cout << "#METRIC {\"bench\":\"cor6\",\"kernel\":\"" << kernel
                << "\",\"n\":" << n << ",\"threads\":" << t.leaf_count()
                << ",\"detector\":\"" << detector << "\",\"backend\":\""
                << backend << "\",\"plain_s\":" << plain
                << ",\"elapsed_s\":" << secs.median()
                << ",\"slowdown\":" << secs.median() / plain
                << ",\"queries\":" << r.queries
                << ",\"race_count\":" << r.race_count << "}\n";
    };
    metric("sp-order", order, order_s);
    metric("sp-bags", bags, bags_s);
  }
  table.print(std::cout);
  return ok;
}

ParseTree lower(const spr::fj::FjProg& p) {
  return spr::fj::lower_to_parse_tree(p);
}

}  // namespace

int main() {
  std::cout << "Corollary 6 — on-the-fly race detection in O(T1):\n"
            << "detection slowdown must stay ~constant as n grows\n"
            << "(each time the median of " << kReps << " runs).\n";

  // Every conflict in the locked accumulator holds lock #1, so its
  // nondeterministic order is a determinacy race but not a data race.
  const ParseTree locked =
      lower(spr::fj::make_locked_accumulator(4096, 8, true));
  spr::order::SpOrder b1(locked), b2(locked);
  const bool determinacy = spr::race::detect_races(locked, b1).has_race();
  const bool data = spr::race::detect_lock_races(locked, b2).has_race();
  std::cout << "\nverdict contrast on the locked accumulator (n=4096):\n"
            << "   determinacy detector: "
            << (determinacy ? "RACE (nondeterministic order)" : "clean")
            << "\n   ALL-SETS (lock-aware): "
            << (data ? "RACE" : "clean (the lock orders every conflict)")
            << "\n";
  bool ok = determinacy && !data;
  if (!ok)
    std::cerr << "cor6: expected a determinacy race and no data race on "
                 "the locked accumulator\n";

  ok = bench("dnc_fill", false,
             [](std::uint64_t n) {
               return lower(spr::fj::make_dnc_fill(n, 4));
             }) &&
       ok;
  ok = bench("reduce_sum", false,
             [](std::uint64_t n) {
               return lower(spr::fj::make_reduce_sum(n, 4));
             }) &&
       ok;
  ok = bench("stencil", false,
             [](std::uint64_t n) {
               return lower(spr::fj::make_stencil(n, 4));
             }) &&
       ok;
  ok = bench("locked_accumulator", true,
             [](std::uint64_t n) {
               return lower(spr::fj::make_locked_accumulator(n, 8, true));
             }) &&
       ok;
  std::cout << "\nShape check (paper): the sp-order slowdown column is flat "
               "in n (O(T1) total)\nfor both detectors; sp-bags tracks it "
               "closely (alpha is tiny in practice, as\nthe paper concedes). "
               "ALL-SETS stays flat because pruning bounds the\nper-access "
               "history work, so lock-aware detectors inherit the improved\n"
               "SP-maintenance bounds.\n";
  if (!ok) {
    std::cerr << "cor6: a run failed its check\n";
    return 1;
  }
  return 0;
}
