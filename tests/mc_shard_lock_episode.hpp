#pragma once
// One model-check episode shared by mc_test (ShadowApplySameCellTwoThreads)
// and its negative control mc_bug_shardlock_test: two logical threads call
// the per-access DeterminacyShadow::apply — SP-hybrid's path — on the same
// location of a one-shard shadow, so both take the same spr::spin_lock.
//
// Thread 0 writes the location during setup; threads 1 and 2 then write it
// concurrently. The SP oracle says 0 precedes both and 1 || 2, so whichever
// writes second races the first: exactly one race, counted by the final
// writer. The `serial` callback runs inside the critical section and
// brackets itself with an spr::atomic occupancy counter, which both
// detects a second thread inside and adds scheduling points there.

#include <cstdint>

#include "mc/checker.hpp"
#include "race/stream/shadow_shards.hpp"
#include "util/atomics.hpp"

namespace spr::mc_episodes {

/// Runs the episode on `r`; returns the location's final writer (1 or 2).
inline tree::ThreadId shard_lock_same_cell(mc::Run& r) {
  using tree::kNoThread;
  using tree::ThreadId;
  race::stream::DeterminacyShadow shadow(1);
  const tree::Access write{/*loc=*/7, /*write=*/true};
  std::uint64_t setup_races = 0;
  shadow.apply(/*stream=*/0, write, /*v=*/0,
               [](ThreadId, ThreadId) { return true; }, setup_races);

  spr::atomic<int> occupancy{0};
  const auto serial = [&](ThreadId u, ThreadId) {
    occupancy.fetch_add(1);
    SPR_MC_ASSERT(occupancy.load() == 1,
                  "two threads inside one shard's critical section");
    occupancy.fetch_sub(1);
    return u == kNoThread || u == 0;  // 0 precedes both; 1 || 2
  };
  std::uint64_t races1 = 0, races2 = 0;
  r.spawn([&] { shadow.apply(0, write, 1, serial, races1); });
  r.spawn([&] { shadow.apply(0, write, 2, serial, races2); });
  r.join_all();

  // A read by a later thread asks about exactly the stored writer.
  ThreadId writer = kNoThread;
  std::uint64_t unused = 0;
  shadow.apply(0, tree::Access{7, false}, 3,
               [&](ThreadId u, ThreadId) {
                 if (u != kNoThread) writer = u;
                 return true;
               },
               unused);
  SPR_MC_ASSERT(races1 + races2 == 1, "exactly one write-write race");
  SPR_MC_ASSERT(writer == 1 || writer == 2, "the final writer is 1 or 2");
  SPR_MC_ASSERT((writer == 1 ? races1 : races2) == 1,
                "the second writer is the one that counts the race");
  return writer;
}

}  // namespace spr::mc_episodes
