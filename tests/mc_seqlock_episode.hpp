#pragma once
// One model-check episode shared by mc_test (GlobalTierSplitVsReader) and
// its negative control mc_bug_seqlock_test: a steal whose insert splits a
// full bucket of the reversed Hebrew list races a lock-free
// GlobalTier::precedes() reader.
//
// Setup steals 31 times from the root trace, leaving 63 items in the
// reversed Hebrew list's one bucket: the root, then h_31, pre_31, h_30,
// pre_30, ... (each steal inserts right after the root, newest first).
// The racing steal's `pre` fills the bucket and its thief item splits
// it. The reader compares pairs whose Hebrew items stay in the bucket's
// first half, which the split rebalances in list order, and their labels
// CROSS between epochs: old labels sit just above the root's (each
// insert halved the root's gap), new ones are small multiples of the
// bucket's stride. So a torn read pairing one item's old label with a
// later item's new one inverts their comparison, and the seqlock must
// make every such read retry.

#include <cstdint>

#include "mc/checker.hpp"
#include "sphybrid/global_tier.hpp"

namespace spr::mc_episodes {

/// Runs the episode on `r`; returns the reader's failed seqlock
/// validations, non-zero when the split tore a read.
inline std::uint64_t seqlock_split_vs_reader(mc::Run& r) {
  using hybrid::GlobalTier;
  GlobalTier tier;
  const GlobalTier::Pair root = tier.root();
  GlobalTier::Split s30{}, s31{};
  for (int i = 1; i <= 31; ++i) {
    s30 = s31;
    s31 = tier.split(root);
  }
  const auto splits_before = tier.reversed_hebrew().stats().bucket_splits;
  GlobalTier::Item* const y = s31.thief.heb;
  GlobalTier::Item* const z = s31.repointed.heb;
  const std::uint64_t y_label = y->label.load(std::memory_order_relaxed);
  const std::uint64_t z_label = z->label.load(std::memory_order_relaxed);
  GlobalTier::Split s32{};
  std::uint64_t retries = 0;
  r.spawn([&] { s32 = tier.split(root); });  // splits the full bucket
  r.spawn([&] {
    // Q_i = (root English, pre_i) precedes T_j = (e_j, h_j) iff i <= j.
    SPR_MC_ASSERT(tier.precedes(s31.repointed, s31.thief, retries),
                  "Q_31 before T_31 must survive a concurrent bucket split");
    SPR_MC_ASSERT(!tier.precedes(s31.repointed, s30.thief, retries),
                  "Q_31 before T_30 contradicts the maintained order");
  });
  r.join_all();
  SPR_MC_ASSERT(
      tier.reversed_hebrew().stats().bucket_splits == splits_before + 1 &&
          y->label.load(std::memory_order_relaxed) != y_label &&
          z->label.load(std::memory_order_relaxed) != z_label,
      "the racing steal must split the bucket and relabel both items");
  std::uint64_t quiet = 0;
  SPR_MC_ASSERT(tier.precedes(s31.repointed, s32.thief, quiet) &&
                    tier.precedes(s32.repointed, s32.thief, quiet) &&
                    !tier.precedes(s32.repointed, s31.thief, quiet) &&
                    !tier.precedes(s31.thief, s32.thief, quiet) &&
                    !tier.precedes(s32.thief, s31.thief, quiet),
                "a steal never reorders the pairs around it");
  SPR_MC_ASSERT(tier.inserts() == 3 * 32, "the racing steal adds 3 items");
  return retries;
}

}  // namespace spr::mc_episodes
