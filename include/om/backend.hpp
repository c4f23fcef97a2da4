#pragma once
// om::Backend — the interface both concurrent OM implementations in this
// library model. The typed suite (tests/om_backend_test.cpp) checks each
// against one sequential oracle, and the contention shootout
// (bench/om_shootout.cpp) races them head-to-head. SP-hybrid's global
// tier (sphybrid/segment_list.hpp) is not generic: it holds a
// ConcurrentOrderList, because it takes inserts only on steals, one at a
// time (at most 3 per steal), which a mutex serves as well as any finer
// scheme.
//
// A backend maintains one total order of opaque Items and provides:
//  - base():          sentinel Item preceding everything ever inserted;
//  - insert_after(x): a new Item immediately after x. Thread safety
//    contract: concurrent insert_after calls are safe on any pivots,
//    including the same one (both models serialize same-pivot inserts
//    behind a lock, so the later one lands between x and the earlier);
//  - precedes(a, b):  lock-free total-order query, linearizable against
//    concurrent inserts;
//  - counters: size(), memory_bytes(), lock_waits() (contended lock
//    acquisitions on the insert path — the shootout's headline metric),
//    query_retries() (failed lock-free query attempts).
//
// The two models shipped here:
//  - ConcurrentOrderList (om/concurrent_om.hpp): mutex-serial inserts,
//    O(n) full relabels, seqlock queries — SP-hybrid's global tier and
//    the oracle;
//  - TwoLevelOm (om/two_level_om.hpp): the paper's Section 4 two-level
//    structure with per-group spr::spin_locks and localized relabeling.

#include <concepts>
#include <cstddef>
#include <cstdint>

namespace spr::om {

template <typename B>
concept Backend =
    requires(B& b, const B& cb, typename B::Item* it,
             const typename B::Item* ca, const typename B::Item* cbi) {
      typename B::Item;
      { b.base() } -> std::convertible_to<typename B::Item*>;
      { b.insert_after(it) } -> std::same_as<typename B::Item*>;
      { cb.precedes(ca, cbi) } -> std::same_as<bool>;
      { cb.size() } -> std::convertible_to<std::size_t>;
      { cb.memory_bytes() } -> std::convertible_to<std::size_t>;
      { cb.lock_waits() } -> std::convertible_to<std::uint64_t>;
      { cb.query_retries() } -> std::convertible_to<std::uint64_t>;
      { B::kName } -> std::convertible_to<const char*>;
    };

}  // namespace spr::om
