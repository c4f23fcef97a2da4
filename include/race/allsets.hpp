#pragma once
// ALL-SETS (Cheng et al.) lock-aware data-race detection on top of the
// SP-maintenance structures — the "more sophisticated detector" whose
// bounds the paper's abstract says improve correspondingly with SP-order.
//
// A one-line client: the walker is shared with the determinacy detector
// (race/detector.hpp), and the protocol — per (stream, location) a
// pruned history of (lockset, writer?) entries, each remembering the
// most recent thread and a sticky parallel one — lives in the shadow
// layer as stream::OwnedAllSetsShadow (race/stream/shadow_shards.hpp).
// An access races with a history entry iff at least one side writes, the
// locksets are disjoint, and the threads are parallel.

#include "race/detector.hpp"
#include "race/stream/shadow_shards.hpp"
#include "sptree/sp_maintenance.hpp"

namespace spr::race {

/// Runs ALL-SETS lock-aware data-race detection over `t` with a fresh
/// SP-maintenance backend `algo`.
template <typename SpAlgo>
inline RaceReport detect_lock_races(const tree::ParseTree& t, SpAlgo& algo) {
  return detail::detect<stream::OwnedAllSetsShadow>(t, algo);
}

}  // namespace spr::race
