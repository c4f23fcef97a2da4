// Exhaustive detector-completeness certification: for EVERY binary
// fork-join parse tree up to 7 leaves and every writer/reader access
// pattern, the sticky writer+two-reader shadow rule (race/
// shadow_protocol.hpp) driven by the streaming SP engine must report a
// race iff the brute-force all-pairs SP oracle finds a conflicting
// parallel pair. This is the ground-truth proof-by-enumeration behind
// Corollary 6's claim that the serial-replay protocol misses nothing and
// never false-positives.
//
// Cost containment, justified by per-location independence: both the
// shadow protocol (one cell per location, never mixing locations) and
// the oracle verdict (a pair can only conflict on a common location)
// decompose per location, so multi-location behavior is exactly the
// product of single-location behaviors.
//  - Phase A (L = 1..5): full streaming-service path (validator, batch,
//    per-stream OwnedDeterminacyShadow, native per-stream SP-order) AND
//    the in-process serial detector, with patterns over TWO locations — 4^L
//    combinations of {read,write} x {loc0,loc1}, plus a no-access letter
//    at L <= 3 to cover empty-trace leaves.
//  - Phase B (L = 6..7): every shape, {read,write}^L on one location,
//    through the shared shadow_apply + StreamingSpOrder hot path (one SP
//    build per shape); every 997th case is cross-checked through the
//    full service path to tie the two phases together.
//
// Shape counts are the Catalan numbers times S/P labelings:
// sum_{L=1..7} C(L-1) * 2^(L-1) = 1 + 2 + 8 + 40 + 224 + 1344 + 8448
// = 10067 trees.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "fjprog/record.hpp"
#include "race/detector.hpp"
#include "race/shadow_protocol.hpp"
#include "race/stream/service.hpp"
#include "sp_test_util.hpp"
#include "sporder/sp_order.hpp"

namespace {

namespace stream = spr::race::stream;
using spr::fj::FjNode;
using spr::tree::ParseTree;
using spr::tree::ThreadId;

/// All binary S/P trees with exactly `leaves` leaves, memoized by size.
const std::vector<FjNode>& shapes(std::uint32_t leaves) {
  static std::vector<std::vector<FjNode>> memo;  // memo[L] = shapes(L)
  if (memo.size() <= leaves) memo.resize(leaves + 1);
  std::vector<FjNode>& out = memo[leaves];
  if (!out.empty()) return out;
  if (leaves == 1) {
    out.push_back(spr::fj::leaf(0));
    return out;
  }
  for (std::uint32_t k = 1; k < leaves; ++k) {
    for (const FjNode& l : shapes(k)) {
      for (const FjNode& r : shapes(leaves - k)) {
        for (const bool series : {true, false}) {
          std::vector<FjNode> kids;
          kids.push_back(l);
          kids.push_back(r);
          out.push_back(series ? spr::fj::seq(std::move(kids))
                               : spr::fj::par(std::move(kids)));
        }
      }
    }
  }
  return out;
}

/// One access per leaf: the letter of an access pattern.
struct Letter {
  bool present = true;
  bool write = false;
  std::uint64_t loc = 0;
};

/// Ground truth: some conflicting pair on a common location is parallel.
bool oracle_verdict(const spr::testutil::Oracle& oracle,
                    const std::vector<Letter>& pattern) {
  const auto n = static_cast<ThreadId>(pattern.size());
  for (ThreadId u = 0; u < n; ++u) {
    if (!pattern[u].present) continue;
    for (ThreadId v = u + 1; v < n; ++v) {
      if (!pattern[v].present) continue;
      if (pattern[u].loc != pattern[v].loc) continue;
      if (!pattern[u].write && !pattern[v].write) continue;
      if (oracle.parallel(u, v)) return true;
    }
  }
  return false;
}

void set_pattern(ParseTree& t, const std::vector<Letter>& pattern) {
  for (ThreadId i = 0; i < pattern.size(); ++i) {
    auto& acc = t.mutable_accesses(i);
    acc.clear();
    if (pattern[i].present)
      acc.push_back({pattern[i].loc, pattern[i].write, 0});
  }
}

/// Full-path verdict: record, batch, validate, ingest through the native
/// streaming service.
bool service_verdict(const ParseTree& t) {
  stream::IngestService svc;
  const stream::StreamId s = svc.open_stream();
  stream::Batch b;
  b.stream = s;
  b.events = spr::fj::record_events(t);
  EXPECT_EQ(svc.submit(b).error, stream::IngestError::kOk);
  EXPECT_EQ(svc.finish(s).error, stream::IngestError::kOk);
  return svc.report(s).races.has_race();
}

/// In-process verdict: the serial detector over SP-order, an independent
/// path from the service (no events, no validation).
bool detector_verdict(const ParseTree& t) {
  spr::order::SpOrder algo(t);
  return spr::race::detect_races(t, algo).has_race();
}

TEST(Completeness, ShapeEnumerationMatchesCatalanCounts) {
  const std::uint64_t expect[] = {0, 1, 2, 8, 40, 224, 1344, 8448};
  std::uint64_t total = 0;
  for (std::uint32_t l = 1; l <= 7; ++l) {
    EXPECT_EQ(shapes(l).size(), expect[l]) << "L=" << l;
    total += shapes(l).size();
  }
  EXPECT_EQ(total, 10067u);
}

// ---------------------------------------------------------------------
// Phase A: L = 1..5, two locations, full service path + serial detector.

TEST(Completeness, PhaseATwoLocationsThroughFullService) {
  std::uint64_t cases = 0, racy = 0;
  for (std::uint32_t leaves = 1; leaves <= 5; ++leaves) {
    // Letters: [no access,] read loc0, write loc0, read loc1, write loc1.
    std::vector<Letter> alphabet;
    if (leaves <= 3) alphabet.push_back({false, false, 0});
    alphabet.push_back({true, false, 0});
    alphabet.push_back({true, true, 0});
    alphabet.push_back({true, false, 1});
    alphabet.push_back({true, true, 1});
    const std::uint64_t radix = alphabet.size();
    std::uint64_t patterns = 1;
    for (std::uint32_t i = 0; i < leaves; ++i) patterns *= radix;

    for (const FjNode& shape : shapes(leaves)) {
      ParseTree t = spr::fj::lower_to_parse_tree({shape});
      ASSERT_EQ(t.leaf_count(), leaves);
      const spr::testutil::Oracle oracle(t);
      std::vector<Letter> pattern(leaves);
      for (std::uint64_t code = 0; code < patterns; ++code) {
        std::uint64_t c = code;
        for (std::uint32_t i = 0; i < leaves; ++i) {
          pattern[i] = alphabet[c % radix];
          c /= radix;
        }
        set_pattern(t, pattern);
        const bool expect_race = oracle_verdict(oracle, pattern);
        ASSERT_EQ(service_verdict(t), expect_race)
            << "service, L=" << leaves << " code=" << code;
        ASSERT_EQ(detector_verdict(t), expect_race)
            << "detector, L=" << leaves << " code=" << code;
        ++cases;
        if (expect_race) ++racy;
      }
    }
  }
  // Both verdict classes must be well represented or the test is vacuous.
  EXPECT_GT(racy, 10000u);
  EXPECT_GT(cases - racy, 10000u);
  std::printf("[  exh   ] phase A: %llu cases (%llu racy)\n",
              static_cast<unsigned long long>(cases),
              static_cast<unsigned long long>(racy));
}

// ---------------------------------------------------------------------
// Phase B: L = 6..7, one location, shared-protocol hot path with one SP
// build per shape; periodic cross-check through the full service.

TEST(Completeness, PhaseBOneLocationAllShapesUpTo7Leaves) {
  std::uint64_t cases = 0, racy = 0, cross_checked = 0;
  for (std::uint32_t leaves = 6; leaves <= 7; ++leaves) {
    for (const FjNode& shape : shapes(leaves)) {
      ParseTree t = spr::fj::lower_to_parse_tree({shape});
      ASSERT_EQ(t.leaf_count(), leaves);
      const spr::testutil::Oracle oracle(t);

      // One SP build per shape: replay the structural events once.
      stream::StreamingSpOrder sp;
      for (const auto& e : spr::fj::record_events(t)) stream::feed_sp(sp, e);
      // Sanity: the streaming SP engine agrees with the oracle pairwise.
      for (ThreadId u = 0; u < leaves; ++u)
        for (ThreadId v = u + 1; v < leaves; ++v)
          ASSERT_EQ(sp.precedes(u, v), !oracle.parallel(u, v))
              << "L=" << leaves << " pair (" << u << "," << v << ")";

      std::uint64_t queries = 0;
      const auto serial = spr::race::counted_serial(
          [&sp](ThreadId u, ThreadId v) { return sp.precedes(u, v); },
          queries);
      std::vector<Letter> pattern(leaves);
      for (std::uint64_t mask = 0; mask < (1ull << leaves); ++mask) {
        for (std::uint32_t i = 0; i < leaves; ++i)
          pattern[i] = {true, ((mask >> i) & 1) != 0, 0};
        // The deployed hot path: shadow_apply on one cell, English order.
        spr::race::ShadowCell cell;
        std::uint64_t races = 0;
        for (ThreadId i = 0; i < leaves; ++i) {
          const spr::tree::Access a{0, pattern[i].write, 0};
          spr::race::shadow_apply(cell, a, i, serial, races);
        }
        const bool expect_race = oracle_verdict(oracle, pattern);
        ASSERT_EQ(races > 0, expect_race)
            << "L=" << leaves << " mask=" << mask;
        if (cases % 997 == 0) {  // tie phase B to the full service path
          set_pattern(t, pattern);
          ASSERT_EQ(service_verdict(t), expect_race)
              << "service cross-check, L=" << leaves << " mask=" << mask;
          ++cross_checked;
        }
        ++cases;
        if (expect_race) ++racy;
      }
    }
  }
  EXPECT_GT(racy, 100000u);
  EXPECT_GT(cases - racy, 10000u);
  EXPECT_GT(cross_checked, 1000u);
  std::printf(
      "[  exh   ] phase B: %llu cases (%llu racy, %llu cross-checked)\n",
      static_cast<unsigned long long>(cases),
      static_cast<unsigned long long>(racy),
      static_cast<unsigned long long>(cross_checked));
}

}  // namespace
