#pragma once
// Model-check episodes of SP-hybrid's lock-free shadow
// (race::stream::LockFreeDeterminacyShadow), shared by mc_test and the
// negative control mc_bug_cellcas_test.
//
//  - cell_cas_same_slot: two logical threads find the same location in a
//    fresh table, so both try to claim its one empty slot, and update its
//    one cell at once (a read by 1 and a write by 2, with 1 || 2). The
//    final cell and the total race count must equal those of one serial
//    order of the two accesses.
//  - cell_cas_window_overflow: a table of kMinCapacity slots, so every
//    slot lies in every key's probe window, filled serially before the
//    threads start up to one free slot, which is the home of both A and
//    B. Thread 1 writes A then B, thread 2 writes B then A: whichever of
//    A and B claims the last slot stays in the table, and the other key
//    must go to the overflow, for both threads, while the other thread
//    probes it. Oracle: one race per key, exactly two overflow accesses,
//    and final writers some serial order of the four writes can leave.
//
// The final cell is read back by a probe write from a later thread, whose
// `serial` callback is asked about the stored writer, reader1 and reader2
// in that order.

#include <cstddef>
#include <cstdint>

#include "mc/checker.hpp"
#include "race/shadow_protocol.hpp"
#include "race/stream/shadow_shards.hpp"

namespace spr::mc_episodes {

namespace detail {

using Shadow = race::stream::LockFreeDeterminacyShadow;

/// 1 || 2; thread 0 and the probe thread 9 are serial with both.
inline bool one_par_two(tree::ThreadId u, tree::ThreadId v) {
  return u == tree::kNoThread || u == v || u == 0 || v == 9;
}

/// The cell stored for `loc`, read by a probe write of thread 9 (which
/// leaves it written by 9: call once per location, after the run).
inline race::ShadowCell reveal(Shadow& shadow, std::uint64_t loc) {
  race::ShadowCell c;
  tree::ThreadId* next[] = {&c.writer, &c.reader1, &c.reader2};
  unsigned asked = 0;
  std::uint64_t races = 0;
  Shadow::Counters counts;
  shadow.apply(
      tree::Access{loc, true}, 9,
      [&](tree::ThreadId u, tree::ThreadId) {
        *next[asked++] = u;
        return true;
      },
      races, counts);
  return c;
}

inline bool same(const race::ShadowCell& a, const race::ShadowCell& b) {
  return a.writer == b.writer && a.reader1 == b.reader1 &&
         a.reader2 == b.reader2;
}

/// The first location at or after `from` whose home slot in a
/// kMinCapacity-slot table is `home`.
inline std::uint64_t loc_at_home(std::size_t home, std::uint64_t from = 0) {
  for (std::uint64_t loc = from;; ++loc)
    if (race::stream::detail::home_slot(0, loc, race::stream::kMinCapacity) ==
        home)
      return loc;
}

}  // namespace detail

/// Runs the same-slot episode on `r`. Returns 1 or 2, the thread whose
/// access the outcome orders first, plus 2 if some cell CAS was retried.
inline int cell_cas_same_slot(mc::Run& r) {
  using detail::one_par_two;
  using race::ShadowCell;
  detail::Shadow shadow(0);
  const tree::Access read{/*loc=*/7, /*write=*/false};
  const tree::Access write{/*loc=*/7, /*write=*/true};
  std::uint64_t races1 = 0, races2 = 0;
  detail::Shadow::Counters c1, c2;
  r.spawn([&] { shadow.apply(read, 1, one_par_two, races1, c1); });
  r.spawn([&] { shadow.apply(write, 2, one_par_two, races2, c2); });
  r.join_all();

  // The two serial orders, on plain cells.
  ShadowCell first1, first2;
  std::uint64_t serial_races1 = 0, serial_races2 = 0;
  race::shadow_apply(first1, read, 1, one_par_two, serial_races1);
  race::shadow_apply(first1, write, 2, one_par_two, serial_races1);
  race::shadow_apply(first2, write, 2, one_par_two, serial_races2);
  race::shadow_apply(first2, read, 1, one_par_two, serial_races2);

  const ShadowCell got = detail::reveal(shadow, 7);
  const bool as1 = detail::same(got, first1);
  const bool as2 = detail::same(got, first2);
  SPR_MC_ASSERT(as1 || as2, "the final cell matches no serial order");
  SPR_MC_ASSERT(races1 + races2 == (as1 ? serial_races1 : serial_races2),
                "the race count differs from the serial order's");
  SPR_MC_ASSERT(c1.overflows + c2.overflows == 0,
                "a key with a free slot went to the overflow");
  return (as1 ? 1 : 2) + (c1.retries + c2.retries > 0 ? 2 : 0);
}

/// Runs the window-overflow episode on `r`; returns the location that
/// went to the overflow.
inline std::uint64_t cell_cas_window_overflow(mc::Run& r) {
  using detail::one_par_two;
  detail::Shadow shadow(0);
  constexpr std::size_t kSlots = race::stream::kMinCapacity;
  const std::size_t free_slot = 5;
  // One key at each other slot's home fills exactly that slot.
  detail::Shadow::Counters setup;
  std::uint64_t setup_races = 0;
  for (std::size_t home = 0; home < kSlots; ++home)
    if (home != free_slot)
      shadow.apply(tree::Access{detail::loc_at_home(home), true}, 0,
                   one_par_two, setup_races, setup);
  const std::uint64_t a = detail::loc_at_home(free_slot);
  const std::uint64_t b = detail::loc_at_home(free_slot, a + 1);

  std::uint64_t races1 = 0, races2 = 0;
  detail::Shadow::Counters c1, c2;
  r.spawn([&] {
    shadow.apply(tree::Access{a, true}, 1, one_par_two, races1, c1);
    shadow.apply(tree::Access{b, true}, 1, one_par_two, races1, c1);
  });
  r.spawn([&] {
    shadow.apply(tree::Access{b, true}, 2, one_par_two, races2, c2);
    shadow.apply(tree::Access{a, true}, 2, one_par_two, races2, c2);
  });
  r.join_all();

  SPR_MC_ASSERT(races1 + races2 == 2, "exactly one write-write race per key");
  SPR_MC_ASSERT(c1.overflows + c2.overflows == 2,
                "one key, both of its accesses, must go to the overflow");
  SPR_MC_ASSERT(c1.overflows == 1 && c2.overflows == 1,
                "each thread must route the overflowing key the same way");
  const tree::ThreadId wa = detail::reveal(shadow, a).writer;
  const tree::ThreadId wb = detail::reveal(shadow, b).writer;
  SPR_MC_ASSERT((wa == 1 || wa == 2) && (wb == 1 || wb == 2),
                "every final writer is 1 or 2");
  // A last by 1 and B last by 2 would order A2 < A1 < B1 < B2 < A2.
  SPR_MC_ASSERT(!(wa == 1 && wb == 2),
                "the final writers match no serial order");
  // The key that stayed in the table holds the window's last slot; the
  // overflow is reached for the other one only.
  detail::Shadow::Counters probe;
  std::uint64_t unused = 0;
  shadow.apply(tree::Access{a, false}, 9, one_par_two, unused, probe);
  return probe.overflows == 1 ? a : b;
}

}  // namespace spr::mc_episodes
