// Figure 3 reproduction: comparison of serial SP-maintenance algorithms.
//
//   Algorithm        Space/node   Thread creation   Query
//   English-Hebrew   Theta(f)     Theta(1)*         Theta(f)
//   Offset-Span      Theta(d)     Theta(1)*         Theta(d)
//   SP-Bags          Theta(1)     Theta(alpha)      Theta(alpha)
//   SP-Order         Theta(1)     Theta(1)          Theta(1)
//
// (*) the original schemes assign labels in O(1) by sharing prefixes
// between parent and child. Ours keep one stack of the open forks' label
// entries, which the walk rewrites as it moves on, so each thread copies
// that stack into its own flat label when it starts and a query compares
// two flat arrays. Creation thus pays Theta(f) (English-Hebrew) or
// Theta(d) (offset-span) for the copy.
//
// The harness measures, per workload: ns per thread creation (walk time /
// threads), ns per SP query (race-detector access pattern), bytes per
// thread, and the maximum label length. The asymptotic *shape* to check:
// label-based schemes explode on deep-spawn workloads (f large for
// english-hebrew, d large for offset-span) while SP-bags and SP-order stay
// flat; SP-order queries beat SP-bags queries. Emits one `#METRIC {...}`
// JSON line per (workload, algorithm) for scripts/bench.sh.

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "labeling/english_hebrew.hpp"
#include "labeling/offset_span.hpp"
#include "spbags/sp_bags.hpp"
#include "sporder/sp_order.hpp"
#include "sporder/sp_order_compact.hpp"
#include "sptree/metrics.hpp"
#include "util/table.hpp"

namespace {

using spr::tree::ParseTree;
using spr::tree::SpMaintenance;
using spr::tree::ThreadId;

struct AlgoSpec {
  std::string name;
  std::string asymptotics;  // space / creation / query from Figure 3
};

std::unique_ptr<SpMaintenance> make_algo(int which, const ParseTree& t) {
  switch (which) {
    case 0:
      return std::make_unique<spr::label::EnglishHebrew>(t);
    case 1:
      return std::make_unique<spr::label::OffsetSpan>(t);
    case 2:
      return std::make_unique<spr::bags::SpBags>(t);
    case 3:
      return std::make_unique<spr::order::SpOrder>(t);
    default:
      return std::make_unique<spr::order::SpOrderCompact>(t);
  }
}

/// Longest label in bits (english-hebrew) or pairs (offset-span); 0 for
/// the algorithms that keep no labels.
std::uint32_t max_label(int which, const ParseTree& t, SpMaintenance& algo) {
  std::uint32_t mx = 0;
  for (ThreadId u = 0; u < t.leaf_count(); ++u) {
    if (which == 0)
      mx = std::max(
          mx, static_cast<spr::label::EnglishHebrew&>(algo).label_bits(u));
    if (which == 1)
      mx = std::max(
          mx, static_cast<spr::label::OffsetSpan&>(algo).label_pairs(u));
  }
  return mx;
}

void bench_workload(const std::string& workload, const std::string& shape,
                    const ParseTree& t) {
  const auto m = spr::tree::compute_metrics(t);
  std::cout << "\n== " << workload << " — " << shape << ": n=" << m.threads
            << " threads, f=" << m.p_nodes << " forks, d=" << m.max_p_depth
            << " nesting ==\n";
  static const AlgoSpec kSpecs[] = {
      {"english-hebrew", "Th(f) / Th(1) / Th(f)"},
      {"offset-span", "Th(d) / Th(1) / Th(d)"},
      {"sp-bags", "Th(1) / Th(a) / Th(a)"},
      {"sp-order", "Th(1) / Th(1) / Th(1)"},
      {"sp-order-compact (fn.2)", "Th(1) / Th(1) / Th(1)"},
  };
  spr::util::Table table({"algorithm", "paper (space/create/query)",
                          "create ns/thread", "query ns", "space B/thread",
                          "max label"});
  for (int which = 0; which < 5; ++which) {
    auto a1 = make_algo(which, t);
    const double walk_s = spr::benchutil::time_walk(t, *a1);
    auto a2 = make_algo(which, t);
    const auto wt =
        spr::benchutil::time_walk_with_queries(t, *a2, 4, walk_s);
    const double space = static_cast<double>(a2->memory_bytes()) /
                         static_cast<double>(m.threads);
    const std::uint32_t label = max_label(which, t, *a2);
    table.add_row({kSpecs[which].name, kSpecs[which].asymptotics,
                   spr::util::fmt_double(wt.ns_per_thread(), 1),
                   spr::util::fmt_double(wt.ns_per_query(), 1),
                   spr::util::fmt_double(space, 1),
                   which > 1 ? "-"
                             : std::to_string(label) +
                                   (which == 0 ? " bits" : " pairs")});
    std::cout << "#METRIC {\"bench\":\"fig3\",\"workload\":\"" << workload
              << "\",\"algorithm\":\"" << kSpecs[which].name
              << "\",\"threads\":" << m.threads
              << ",\"create_ns_per_thread\":" << wt.ns_per_thread()
              << ",\"query_ns\":" << wt.ns_per_query()
              << ",\"bytes_per_thread\":" << space
              << ",\"max_label\":" << label << "}\n";
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  std::cout << "Figure 3 — serial SP-maintenance algorithm comparison\n"
            << "(query pattern: 4 race-detector queries per thread against "
               "random prior threads)\n";
  bench_workload("fib(20)", "balanced recursion, d = Theta(lg f)",
                 spr::fj::lower_to_parse_tree(spr::fj::make_fib(20)));
  bench_workload("balanced(14)", "full binary spawn tree",
                 spr::fj::lower_to_parse_tree(spr::fj::make_balanced(14)));
  bench_workload(
      "loop_spawn(1024)", "one sync block, d = f (labels explode)",
      spr::fj::lower_to_parse_tree(spr::fj::make_loop_spawn(1024)));
  bench_workload(
      "loop_sync(20000, 8)", "spawning loop, sync every 8 (d = 8)",
      spr::fj::lower_to_parse_tree(spr::fj::make_loop_sync(20000, 8)));
  std::cout
      << "\nShape check (paper): english-hebrew/offset-span space and query "
         "costs track their\nlabel lengths (Theta(f)/Theta(d)); sp-bags and "
         "sp-order stay flat regardless of\nworkload shape. Note sp-bags "
         "can beat sp-order on raw serial query time: alpha\nis effectively "
         "constant, exactly as Section 1 concedes — SP-order's advantages\n"
         "are the asymptotic bound and, crucially, parallelizability "
         "(Theorem 10).\n";
  return 0;
}
