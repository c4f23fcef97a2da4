// Theorem 5 / Corollary 6 reproduction (construction side): "the total
// time for on-the-fly construction of the SP-order data structure is
// O(n)." The harness sweeps n over ~two orders of magnitude on three tree
// shapes and reports ns per leaf, which must stay flat, plus a linear fit
// of total time vs n (R^2 ~ 1, intercept negligible).
//
// That flat cost rests on the two-level OM list's O(1) amortized insert.
// A closing table contrasts it with the one-level LabeledList baseline on
// the adversarial pattern (every insert after one pivot): items moved per
// insert stay ~3 for OrderList but reach hundreds for LabeledList. Emits
// `#METRIC {...}` lines for scripts/bench.sh: one per (shape, n) with
// ns/leaf and OM items moved per insert, one fit row per shape (slope,
// intercept, R^2), and one per adversarial OM list.
//
// Exits 1 if OrderList moves more than kMaxMovedPerInsert items per
// insert on any (shape, n) row or on the adversarial row, or if
// LabeledList's adversarial row does not exceed OrderList's. These are
// counts, not times, so the gate is deterministic.

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "om/labeled_list.hpp"
#include "om/order_list.hpp"
#include "sporder/sp_order.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using spr::tree::ParseTree;

/// Theorem 5's O(1) amortized insert, as a bound on OrderList's items
/// moved per insert (the rows read 2.05-2.82).
constexpr double kMaxMovedPerInsert = 4;

struct Point {
  std::string shape;
  ParseTree tree;
};

double median_walk_s(const ParseTree& t, int reps) {
  spr::util::Samples s;
  for (int r = 0; r < reps; ++r) {
    spr::order::SpOrder algo(t);
    s.add(spr::benchutil::time_walk(t, algo));
  }
  return s.median();
}

/// Items moved per insert when all n-1 inserts follow one pivot.
template <typename List>
double adversarial_moved_per_insert(int n) {
  List list;
  auto* pivot = list.root();
  for (int i = 1; i < n; ++i) list.insert_after(pivot);
  return static_cast<double>(list.stats().items_moved) /
         static_cast<double>(list.stats().inserts);
}

}  // namespace

int main() {
  std::cout << "Theorem 5 — SP-order builds in O(n) total time\n";
  bool ok = true;
  const auto check_moved = [&](const std::string& row, double moved) {
    if (moved <= kMaxMovedPerInsert) return;
    std::cerr << "thm5: " << row << ": order-list moves " << moved
              << " items per insert, above " << kMaxMovedPerInsert << "\n";
    ok = false;
  };
  for (const char* shape : {"balanced", "fib", "random"}) {
    spr::util::Table table({"n (threads)", "total", "ns/leaf",
                            "OM items moved/insert"});
    std::vector<double> xs, ys;
    for (int scale = 0; scale < 6; ++scale) {
      ParseTree t = [&]() -> ParseTree {
        if (std::string(shape) == "balanced")
          return spr::fj::lower_to_parse_tree(
              spr::fj::make_balanced(12 + scale));
        if (std::string(shape) == "fib")
          return spr::fj::lower_to_parse_tree(
              spr::fj::make_fib(17 + scale));
        return spr::fj::lower_to_parse_tree(spr::fj::make_random_program(
            42 + static_cast<std::uint64_t>(scale),
            20000u << scale));
      }();
      const auto n = static_cast<double>(t.leaf_count());
      const double secs = median_walk_s(t, 3);
      spr::order::SpOrder probe(t);
      (void)spr::benchutil::time_walk(t, probe);
      const auto& st = probe.english_stats();
      const double moved = st.inserts == 0
                               ? 0
                               : static_cast<double>(st.items_moved) /
                                     static_cast<double>(st.inserts);
      check_moved(std::string(shape) + " n=" +
                      std::to_string(t.leaf_count()),
                  moved);
      xs.push_back(n);
      ys.push_back(secs);
      std::cout << "#METRIC {\"bench\":\"thm5_sporder_scaling\",\"shape\":\""
                << shape << "\",\"n\":" << t.leaf_count()
                << ",\"total_s\":" << secs
                << ",\"ns_per_leaf\":" << secs * 1e9 / n
                << ",\"moved_per_insert\":" << moved << "}\n";
      table.add_row({std::to_string(t.leaf_count()),
                     spr::util::fmt_ns(secs * 1e9),
                     spr::util::fmt_double(secs * 1e9 / n, 2),
                     spr::util::fmt_double(moved, 3)});
    }
    const auto fit = spr::util::fit_linear(xs, ys);
    std::cout << "\n-- shape: " << shape << " --\n";
    table.print(std::cout);
    std::cout << "linear fit: time = " << spr::util::fmt_ns(fit.intercept * 1e9)
              << " + n * " << spr::util::fmt_double(fit.slope * 1e9, 2)
              << " ns,  R^2 = " << spr::util::fmt_double(fit.r_squared, 4)
              << "\n";
    std::cout << "#METRIC {\"bench\":\"thm5_sporder_scaling\",\"shape\":\""
              << shape << "\",\"fit\":\"linear\",\"slope_ns_per_leaf\":"
              << fit.slope * 1e9 << ",\"intercept_s\":" << fit.intercept
              << ",\"r_squared\":" << fit.r_squared << "}\n";
  }

  constexpr int kAdversarialN = 1 << 16;
  std::cout << "\n-- OM lists, adversarial inserts (n = " << kAdversarialN
            << ", all after one pivot) --\n";
  spr::util::Table om_table({"list", "items moved/insert"});
  const auto om_row = [&](const char* list, double moved) {
    om_table.add_row({list, spr::util::fmt_double(moved, 3)});
    std::cout << "#METRIC {\"bench\":\"thm5_sporder_scaling\",\"list\":\""
              << list << "\",\"pattern\":\"adversarial\",\"n\":"
              << kAdversarialN << ",\"moved_per_insert\":" << moved << "}\n";
  };
  const double order_moved =
      adversarial_moved_per_insert<spr::om::OrderList>(kAdversarialN);
  const double labeled_moved =
      adversarial_moved_per_insert<spr::om::LabeledList>(kAdversarialN);
  om_row("order-list", order_moved);
  om_row("labeled-list", labeled_moved);
  om_table.print(std::cout);
  check_moved("adversarial", order_moved);
  if (labeled_moved <= order_moved) {
    std::cerr << "thm5: adversarial labeled-list moves " << labeled_moved
              << " items per insert, not above order-list's " << order_moved
              << "\n";
    ok = false;
  }

  std::cout << "\nShape check (paper): ns/leaf flat across the sweep "
               "(R^2 ~ 1) on every tree shape;\nadversarial OM inserts move "
               "~3 items each in OrderList, hundreds in LabeledList.\n";
  return ok ? 0 : 1;
}
