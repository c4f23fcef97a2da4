#pragma once
// One model-check episode shared by mc_test (ConcurrentOmRelabelVsReader)
// and its negative control mc_bug_seqlock_test: an insert_after that
// relabels the WHOLE ConcurrentOrderList (SP-hybrid's global tier) races a
// lock-free precedes() reader.
//
// Setup narrows a's successor gap to 1, so the racing insert after a must
// relabel. y and z = y->next are adjacent mid-chain items whose label
// ranges CROSS between epochs: old labels sit near kMax/2, new labels are
// small multiples of the relabel stride, so a torn read pairing y's old
// label with z's new label inverts their comparison. The seqlock must
// make every such read retry.

#include <cstdint>

#include "mc/checker.hpp"
#include "om/concurrent_om.hpp"

namespace spr::mc_episodes {

/// Runs the episode on `r`; returns the reader's failed seqlock
/// validations (query_retries()), non-zero when the relabel tore a read.
inline std::uint64_t seqlock_relabel_vs_reader(mc::Run& r) {
  using om::ConcurrentOrderList;
  ConcurrentOrderList om;
  ConcurrentOrderList::Item* a = om.insert_after(om.base());
  om.insert_after(a);  // initial successor; ends up last in the list
  ConcurrentOrderList::Item* y = om.insert_after(a);
  while (y->label.load(std::memory_order_relaxed) -
             a->label.load(std::memory_order_relaxed) >=
         2)
    y = om.insert_after(a);
  ConcurrentOrderList::Item* z = y->next;  // setup phase: links are stable
  ConcurrentOrderList::Item* n = nullptr;
  r.spawn([&] { n = om.insert_after(a); });  // triggers relabel_all_locked
  r.spawn([&] {
    SPR_MC_ASSERT(om.precedes(y, z), "y < z must survive a concurrent relabel");
    SPR_MC_ASSERT(!om.precedes(z, y), "z < y contradicts the maintained order");
  });
  r.join_all();
  SPR_MC_ASSERT(om.precedes(a, n) && om.precedes(n, y),
                "the racing insert lands between a and y");
  return om.query_retries();
}

}  // namespace spr::mc_episodes
