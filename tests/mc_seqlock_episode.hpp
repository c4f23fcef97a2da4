#pragma once
// One model-check episode shared by mc_test (SegmentRelabelVsReader) and
// its negative control mc_bug_seqlock_test: a SegmentList insert that
// finds no label gap and relabels a window of segments races a lock-free
// less() reader.
//
// Setup inserts segments right after the root until the gap after it is
// exhausted, so the racing insert must relabel. y and z sit right after
// the root, inside the relabeled window (which starts at the root), and
// their labels CROSS between epochs: old labels are tiny offsets from the
// root's (the halved gap), new ones are multiples of the window's stride,
// and y is relabeled before z, so a torn read pairing y's new label with
// z's old one inverts their comparison. The seqlock must make every such
// read retry.

#include <cstddef>
#include <cstdint>

#include "mc/checker.hpp"
#include "sphybrid/segment_list.hpp"

namespace spr::mc_episodes {

/// Runs the episode on `r`; returns the reader's failed seqlock
/// validations (query_retries()), non-zero when the relabel tore a read.
inline std::uint64_t seqlock_relabel_vs_reader(mc::Run& r) {
  using hybrid::SegmentList;
  SegmentList sl;
  SegmentList::Segment* const root = sl.root();
  // root < (newest) < ... < (oldest): each insert halves root's gap.
  do {
    sl.insert_after(root);
  } while (root->next->label.load(std::memory_order_relaxed) -
               root->label.load(std::memory_order_relaxed) >=
           2);
  const std::size_t before = sl.size();
  SegmentList::Segment* const y = root->next;
  SegmentList::Segment* const z = y->next;
  const std::uint64_t y_label = y->label.load(std::memory_order_relaxed);
  const std::uint64_t z_label = z->label.load(std::memory_order_relaxed);
  SegmentList::Segment* x = nullptr;
  r.spawn([&] { x = sl.insert_after(root); });  // no gap: relabels
  r.spawn([&] {
    SPR_MC_ASSERT(sl.less(y, z), "y < z must survive a concurrent relabel");
    SPR_MC_ASSERT(!sl.less(z, y), "z < y contradicts the maintained order");
  });
  r.join_all();
  SPR_MC_ASSERT(y->label.load(std::memory_order_relaxed) != y_label &&
                    z->label.load(std::memory_order_relaxed) != z_label,
                "the racing insert must relabel both compared labels");
  SPR_MC_ASSERT(sl.less(root, x) && sl.less(x, y) && sl.less(y, z),
                "an insert never reorders the segments around it");
  SPR_MC_ASSERT(sl.size() == before + 1, "the racing insert adds one segment");
  return sl.query_retries();
}

}  // namespace spr::mc_episodes
