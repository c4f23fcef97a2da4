#pragma once
// The determinacy-race shadow protocol (Corollary 6) and its query
// accounting, shared verbatim by every consumer: the serial detector
// (race/detector.hpp), the SP-hybrid engine and its serial reference
// (sphybrid/), and the streaming service (race/stream/service.hpp), all
// on the ShadowCell values of race/stream/shadow_shards.hpp's cell table.
// One definition, so the rule the completeness test certifies
// (tests/race_completeness_test.cpp) is the rule every deployment runs.
//
// Shadow state (per location): the last writer plus two readers — the
// most recent reader and a sticky reader kept from an earlier parallel
// branch. A write must be serial with the stored writer and both readers;
// a read must be serial with the stored writer. On a serial (English
// order) replay this flags a race for every program whose dag has a
// conflicting parallel pair on the locations it touches, and never flags
// a race-free program.

#include <cstdint>

#include "sptree/sp_maintenance.hpp"

namespace spr::race {

struct RaceReport {
  std::uint64_t race_count = 0;
  std::uint64_t queries = 0;  ///< precedes() calls issued by the protocol
  bool has_race() const { return race_count > 0; }
};

struct ShadowCell {
  tree::ThreadId writer = tree::kNoThread;
  tree::ThreadId reader1 = tree::kNoThread;  ///< most recent reader
  tree::ThreadId reader2 = tree::kNoThread;  ///< sticky parallel reader
};

/// The one query-accounting rule every detector shares: "no thread" and
/// the same thread are serial for free; any other pair counts one query
/// in `queries` and asks `precedes(u, v)`. Returns the `serial(u, v)`
/// predicate the shadow protocols below take, so every deployment reports
/// the same RaceReport::queries for the same trace.
template <typename PrecedesFn>
inline auto counted_serial(PrecedesFn precedes, std::uint64_t& queries) {
  return [precedes, &queries](tree::ThreadId u, tree::ThreadId v) -> bool {
    if (u == tree::kNoThread || u == v) return true;
    ++queries;
    return precedes(u, v);
  };
}

/// Applies one access by thread `v` to a shadow cell, bumping
/// `race_count` per conflicting parallel accessor. `serial(u, v)` must
/// return whether u is serial with v (treating "no thread" and u == v as
/// serial; see counted_serial).
template <typename SerialFn>
inline void shadow_apply(ShadowCell& c, const tree::Access& a,
                         tree::ThreadId v, SerialFn&& serial,
                         std::uint64_t& race_count) {
  if (a.write) {
    if (!serial(c.writer, v)) ++race_count;
    if (!serial(c.reader1, v)) ++race_count;
    if (!serial(c.reader2, v)) ++race_count;
    // The write dominates: any future conflict with the overwritten
    // accessors is also a conflict with v.
    c.writer = v;
    c.reader1 = c.reader2 = tree::kNoThread;
  } else {
    if (!serial(c.writer, v)) ++race_count;
    if (c.reader1 == tree::kNoThread || serial(c.reader1, v)) {
      c.reader1 = v;
    } else {
      // reader1 is parallel to v: keep it sticky in reader2 (it can
      // still race a later writer that v is serial with) and make v the
      // recent reader.
      if (c.reader2 == tree::kNoThread || serial(c.reader2, v))
        c.reader2 = c.reader1;
      c.reader1 = v;
    }
  }
}

}  // namespace spr::race
