// Corollary 6 reproduction: "a determinacy-race detector using SP-order
// runs in O(T1) time" — i.e. the detection slowdown over plain execution
// is a constant factor, independent of program size. SP-bags is the
// Theta(alpha)-per-operation comparison point (Nondeterminator).
//
// The harness runs the access-carrying kernels at increasing sizes,
// measures plain execution (walk + work + touching every access) and
// detection time per backend, and reports the slowdown factors.

#include <iostream>
#include <memory>
#include <string>

#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "race/detector.hpp"
#include "spbags/sp_bags.hpp"
#include "sporder/sp_order.hpp"
#include "sptree/walk.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

namespace {

using spr::tree::Node;
using spr::tree::ParseTree;

/// Plain execution baseline: spin the work and read every access record,
/// but no shadow memory and no SP maintenance.
struct PlainExec final : spr::tree::WalkVisitor {
  explicit PlainExec(const ParseTree& t) : tree(t) {}
  void visit_leaf(const Node& n) override {
    checksum ^= spr::util::spin_work(n.work);
    for (const auto& a : tree.accesses(n.thread))
      checksum += a.loc + (a.write ? 1 : 0);
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

template <typename Backend>
double time_detect(const ParseTree& t) {
  Backend backend(t);
  const spr::util::Stopwatch sw;
  const auto result = spr::race::detect_races(t, backend);
  spr::util::do_not_optimize(result.race_count);
  return sw.elapsed_s();
}

void bench(const std::string& name, std::uint32_t base) {
  std::cout << "\n-- " << name << " --\n";
  spr::util::Table table({"n", "threads", "accesses/thread", "plain",
                          "sp-order", "slowdown", "sp-bags", "slowdown"});
  for (int scale = 0; scale < 4; ++scale) {
    const std::uint32_t n = base << (2 * scale);
    ParseTree t = [&] {
      if (name == "dnc_fill")
        return spr::fj::lower_to_parse_tree(spr::fj::make_dnc_fill(n, 4));
      if (name == "reduce_sum")
        return spr::fj::lower_to_parse_tree(
            spr::fj::make_reduce_sum(n, 4, false));
      return spr::fj::lower_to_parse_tree(spr::fj::make_stencil(n, 4, false));
    }();
    const double plain = time_plain(t);
    const double sporder = time_detect<spr::order::SpOrder>(t);
    const double spbags = time_detect<spr::bags::SpBags>(t);
    const double apt =
        static_cast<double>(n) / static_cast<double>(t.leaf_count());
    table.add_row({std::to_string(n), std::to_string(t.leaf_count()),
                   spr::util::fmt_double(apt, 1),
                   spr::util::fmt_ns(plain * 1e9),
                   spr::util::fmt_ns(sporder * 1e9),
                   spr::util::fmt_double(sporder / plain, 2) + "x",
                   spr::util::fmt_ns(spbags * 1e9),
                   spr::util::fmt_double(spbags / plain, 2) + "x"});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  std::cout << "Corollary 6 — on-the-fly race detection in O(T1):\n"
            << "detection slowdown must stay ~constant as n grows.\n";
  bench("dnc_fill", 1u << 10);
  bench("reduce_sum", 1u << 10);
  bench("stencil", 1u << 10);
  std::cout << "\nShape check (paper): the sp-order slowdown column is flat "
               "in n (O(T1) total);\nsp-bags tracks it closely (alpha is "
               "tiny in practice, as the paper concedes).\n";
  return 0;
}
