#pragma once
// One model-check episode shared by mc_test (SegmentGlobalRelabelVsReader)
// and its negative control mc_bug_seqlock_test: a SegmentList::split_tail
// that finds no global gap and relabels a window of segments races a
// lock-free cross-segment less() reader.
//
// Setup cuts singleton tails off the root's segment until the global gap
// after it is exhausted, so the racing cut must relabel. y and z sit in
// the two segments right after the root's, inside the relabeled window
// (which starts at the root's segment), and their global labels CROSS
// between epochs: old labels are tiny (the halved gap), new ones are
// multiples of the window's stride, and y is relabeled before z, so a
// torn read pairing y's new label with z's old one inverts their
// comparison. The seqlock must make every such read retry.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mc/checker.hpp"
#include "sphybrid/segment_list.hpp"

namespace spr::mc_episodes {

/// Runs the episode on `r`; returns the reader's failed seqlock
/// validations (query_retries()), non-zero when the relabel tore a read.
inline std::uint64_t seqlock_relabel_vs_reader(mc::Run& r) {
  using hybrid::SegmentList;
  SegmentList sl;
  SegmentList::Item* const root = sl.root();
  const SegmentList::Segment* const first =
      root->seg.load(std::memory_order_relaxed);
  // root < items.back() < ... < items.front(): cutting items in index
  // order takes one singleton tail each time, linked right after first.
  std::vector<SegmentList::Item*> items;
  for (int i = 0; i < 80; ++i) items.push_back(sl.insert_after(root));
  std::size_t cuts = 0;
  do {
    sl.split_tail(items[cuts++]);
  } while (first->next->glabel.load(std::memory_order_relaxed) -
               first->glabel.load(std::memory_order_relaxed) >=
           2);
  SegmentList::Item* const x = items[cuts];      // root segment's tail
  SegmentList::Item* const y = items[cuts - 1];  // first's successor
  SegmentList::Item* const z = items[cuts - 2];  // y's successor
  const SegmentList::Segment* const sy = y->seg.load(std::memory_order_relaxed);
  const SegmentList::Segment* const sz = z->seg.load(std::memory_order_relaxed);
  const std::uint64_t y_label = sy->glabel.load(std::memory_order_relaxed);
  const std::uint64_t z_label = sz->glabel.load(std::memory_order_relaxed);
  r.spawn([&] { sl.split_tail(x); });  // no gap after first: relabels
  r.spawn([&] {
    SPR_MC_ASSERT(sl.less(y, z), "y < z must survive a concurrent relabel");
    SPR_MC_ASSERT(!sl.less(z, y), "z < y contradicts the maintained order");
  });
  r.join_all();
  SPR_MC_ASSERT(sy->glabel.load(std::memory_order_relaxed) != y_label &&
                    sz->glabel.load(std::memory_order_relaxed) != z_label,
                "the racing cut must relabel both labels the reader compares");
  SPR_MC_ASSERT(sl.less(root, x) && sl.less(x, y) && sl.less(y, z),
                "a cut never changes the total order");
  SPR_MC_ASSERT(sl.segment_count() == cuts + 2,
                "the racing cut adds one segment");
  return sl.query_retries();
}

}  // namespace spr::mc_episodes
