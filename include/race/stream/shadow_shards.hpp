#pragma once
// Shadow memory for every race detector in the repo.
//
// One cell table. Every shadow finds a location's state in a CellTable:
// an open-addressed, linear-probing table keyed by (stream, loc), whose
// keys sit in two dense columns (loc, stream) beside one value column — a
// ShadowCell for the determinacy protocol, a history-list head for
// ALL-SETS. A probe reads only the key columns until it hits. There is
// no per-cell allocation: a growth takes three columns of twice the size
// from the table's own util::Arena, which frees nothing until the table
// dies. Superseded columns stay allocated (at most as many bytes as the
// live ones), but a growth never returns memory mid-run, so SP-hybrid's
// workers, growing shards on every thread at once, never contend on the
// system allocator's locks or its trims.
//
// Sized once where the program is known. A shadow whose whole program is
// a tree::ParseTree — the serial detectors, SP-hybrid's engine and its
// serial reference — reserve()s its table before the run from
// estimate_footprint(t), a HyperLogLog count of the distinct locations
// the tree touches, so the table never doubles mid-run (each doubling
// rehashes every cell, ~1.5 moves per final cell over a run). The
// estimate is only a starting size: a table that gets more cells still
// grows. The raw access count is not used: on read-sharing programs
// (stencil makes 4 accesses per location) it sizes tables ~4x too large,
// and the extra first-touch page faults cost more than the growth saved.
// Service streams arrive event by event with no footprint known, so
// their tables start at kFirstCapacity and double.
//
// One owner, no lock. OwnedDeterminacyShadow and OwnedAllSetsShadow each
// hold one CellTable and take no lock, because exactly one thread of
// control ever touches them: the serial detectors (race/detector.hpp) and
// the serial reference (sphybrid/executor.hpp) own one each, and every
// stream of the streaming service owns one, guarded by the stream mutex
// its submitter already holds and freed by finish()
// (race/stream/service.hpp). The stream is part of the key, so a table
// can also hold several streams' cells, as a shard below does.
//
// OwnedAllSetsShadow is the lock-aware ALL-SETS protocol (Cheng et al.):
// per (stream, location) a pruned history of (lockset, writer?) entries —
// each remembering the most recent and one sticky parallel thread,
// mirroring the determinacy protocol — with the entries drawn from a
// free-list pool.
//
// Shared, sharded. DeterminacyShadow is for several threads applying
// accesses at once — SP-hybrid's workers, which run one program and share
// one shadow of 64 shards per worker. Locations hash-partition across a
// power-of-two number of shards, each an OwnedDeterminacyShadow behind a
// spr::spin_lock (util/atomics.hpp), so the per-cell rule keeps one body
// and two workers only contend when their locations collide on a shard.
// The lock spins rather than sleeps because a cell update holds it for
// ~100 ns, far less than the futex sleep and wake-up a std::mutex pays on
// each collision. It is built from spr::atomic, so the systematic
// concurrency checker explores its handoffs (tests/mc_test.cpp).
//
// Shard and slot come from disjoint bits. shard_of(loc) is bits 32 and
// up of mix64(loc), and a cell's home slot in its table is the low bits
// of cell_hash(stream, loc). For stream 0 (the SP-hybrid engine's only
// stream) cell_hash is mix64(loc) itself, so if both read the low bits,
// every key of shard k would start probing at a slot congruent to k
// modulo the shard count S: only 1/S of each table would take probe
// starts, and the linear-probe runs would grow with S.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "race/shadow_protocol.hpp"
#include "race/stream/event.hpp"
#include "sptree/sp_maintenance.hpp"
#include "util/arena.hpp"
#include "util/atomics.hpp"

namespace spr::race::stream {

namespace detail {

/// splitmix64 finalizer: full-avalanche location mixing, so contiguous
/// array fills spread evenly across shards and table slots.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline std::uint64_t cell_hash(StreamId s, std::uint64_t loc) {
  return mix64(loc ^ (static_cast<std::uint64_t>(s) << 32));
}

/// The home slot of (s, loc) in a table of `cap` (a power of two) slots:
/// the low bits of cell_hash, disjoint from the bits
/// DeterminacyShadow::shard_of reads for tables up to 2^32 slots (see the
/// header comment).
inline std::size_t home_slot(StreamId s, std::uint64_t loc, std::size_t cap) {
  return static_cast<std::size_t>(cell_hash(s, loc)) & (cap - 1);
}

inline std::uint32_t round_up_pow2(std::uint32_t x) {
  std::uint32_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

}  // namespace detail

/// Estimated count of the distinct locations `t` accesses: one pass over
/// every thread's accesses into a HyperLogLog sketch (Flajolet et al.)
/// of 2^12 one-byte registers over mix64(loc), standard error ~1.6%,
/// with linear counting for small counts (0 for no accesses, ~1 for one
/// location). Meant for CellTable::reserve.
inline std::size_t estimate_footprint(const tree::ParseTree& t) {
  constexpr unsigned kBits = 12;
  constexpr std::size_t kRegs = std::size_t{1} << kBits;
  // 2^-r in integer units of 2^-51 (ranks above 51 count as 51; a
  // register reaches them only after ~2^51 of its own locations).
  const auto weight = [](unsigned r) {
    return std::uint64_t{1} << (51 - std::min(r, 51u));
  };
  std::array<std::uint8_t, kRegs> reg{};
  // The sum of weight(r) and the count of zero registers, kept up to
  // date as registers rise, so no pass over the sketch follows the loop.
  std::uint64_t inv_sum = std::uint64_t{kRegs} << 51;
  std::size_t zeros = kRegs;
  for (tree::ThreadId v = 0; v < t.leaf_count(); ++v)
    for (const tree::Access& a : t.accesses(v)) {
      const std::uint64_t h = detail::mix64(a.loc);
      // Rank of the first set bit below the register index; the guard
      // bit caps it at 64 - kBits + 1.
      const auto rank = static_cast<std::uint8_t>(
          std::countl_zero((h << kBits) | (std::uint64_t{1} << (kBits - 1))) +
          1);
      std::uint8_t& r = reg[h >> (64 - kBits)];
      if (rank <= r) continue;
      inv_sum -= weight(r) - weight(rank);
      if (r == 0) --zeros;
      r = rank;
    }
  constexpr double m = kRegs;
  double e = 0.7213 / (1 + 1.079 / m) * m * m /
             std::ldexp(static_cast<double>(inv_sum), -51);
  if (e <= 2.5 * m && zeros > 0)
    e = m * std::log(m / static_cast<double>(zeros));
  return static_cast<std::size_t>(std::llround(e));
}

/// Open-addressed (linear probing) table from (stream, loc) to a V, with
/// the keys in their own columns. Grows by doubling at 3/4 load into
/// fresh columns from the table's arena; reserve() sizes it up front
/// (see the header comment). Not thread-safe.
template <typename V>
class CellTable {
  static_assert(std::is_trivially_copyable_v<V>,
                "columns live in raw arena blocks");

 public:
  static constexpr std::size_t kFirstCapacity = 64;

  /// The value stored under (s, loc), value-initialised on first use.
  /// The reference is valid until the next call.
  V& find_or_insert(StreamId s, std::uint64_t loc) {
    if (count_ * 4 >= cap_ * 3) grow();
    std::size_t i = detail::home_slot(s, loc, cap_);
    while (stream_[i] != kNoStream) {
      if (stream_[i] == s && loc_[i] == loc) return value_[i];
      i = (i + 1) & (cap_ - 1);
    }
    stream_[i] = s;
    loc_[i] = loc;
    value_[i] = V{};
    ++count_;
    return value_[i];
  }

  /// Moves the cells into the smallest power-of-two capacity (at least
  /// kFirstCapacity) that holds `cells` at or below 3/4 load, so inserts
  /// up to that many cells never grow the table. Never shrinks it;
  /// reserve(0) does nothing.
  void reserve(std::size_t cells) {
    std::size_t ncap = kFirstCapacity;
    while (ncap * 3 < cells * 4) ncap *= 2;
    if (cells > 0 && ncap > cap_) rehash(ncap);
  }

  std::size_t size() const { return count_; }

  std::size_t memory_bytes() const {
    return sizeof(*this) + arena_.memory_bytes();
  }

 private:
  void grow() { rehash(cap_ == 0 ? kFirstCapacity : cap_ * 2); }

  void rehash(std::size_t ncap) {
    auto* nloc = arena_.alloc_array<std::uint64_t>(ncap);
    auto* nvalue = arena_.alloc_array<V>(ncap);
    auto* nstream = arena_.alloc_array<StreamId>(ncap);
    std::fill_n(nstream, ncap, kNoStream);
    for (std::size_t i = 0; i < cap_; ++i) {
      if (stream_[i] == kNoStream) continue;
      std::size_t j = detail::home_slot(stream_[i], loc_[i], ncap);
      while (nstream[j] != kNoStream) j = (j + 1) & (ncap - 1);
      nloc[j] = loc_[i];
      nstream[j] = stream_[i];
      nvalue[j] = value_[i];
    }
    loc_ = nloc;
    value_ = nvalue;
    stream_ = nstream;
    cap_ = ncap;
  }

  util::Arena arena_;
  std::size_t cap_ = 0;
  std::size_t count_ = 0;
  std::uint64_t* loc_ = nullptr;
  V* value_ = nullptr;
  StreamId* stream_ = nullptr;
};

/// Determinacy shadow of one owner: one ShadowCell per (stream, loc).
/// Not thread-safe.
class OwnedDeterminacyShadow {
 public:
  /// Sizes the table for `cells` cells (CellTable::reserve).
  void reserve(std::size_t cells) { cells_.reserve(cells); }

  /// Applies access `a` by thread `v` (race::shadow_apply); `serial`
  /// answers SP queries.
  template <typename SerialFn>
  void apply(StreamId s, const tree::Access& a, tree::ThreadId v,
             SerialFn&& serial, std::uint64_t& race_count) {
    shadow_apply(cells_.find_or_insert(s, a.loc), a, v, serial, race_count);
  }

  std::size_t cell_count() const { return cells_.size(); }
  std::size_t memory_bytes() const { return cells_.memory_bytes(); }

 private:
  CellTable<ShadowCell> cells_;
};

/// ALL-SETS shadow of one owner. Not thread-safe.
class OwnedAllSetsShadow {
 public:
  /// One ALL-SETS access: race-check against every entry whose lockset is
  /// disjoint (with at least one writer side), then file the access under
  /// its (lockset, write) key. Keying the history by (lockset, write)
  /// bounds per-access work by the number of distinct locksets used at
  /// the location.
  template <typename SerialFn>
  void apply(StreamId s, const tree::Access& a, tree::ThreadId v,
             SerialFn&& serial, std::uint64_t& race_count) {
    Entry*& head = heads_.find_or_insert(s, a.loc);
    for (Entry* e = head; e != nullptr; e = e->next) {
      const bool conflicting = a.write || e->write;
      const bool unguarded = (e->locks & a.locks) == 0;
      if (!conflicting || !unguarded) continue;
      if (!serial(e->t1, v)) ++race_count;
      if (!serial(e->t2, v)) ++race_count;
    }
    for (Entry* e = head; e != nullptr; e = e->next) {
      if (e->locks != a.locks || e->write != a.write) continue;
      if (e->t1 == tree::kNoThread || serial(e->t1, v)) {
        e->t1 = v;
      } else {
        if (e->t2 == tree::kNoThread || serial(e->t2, v)) e->t2 = e->t1;
        e->t1 = v;
      }
      return;
    }
    Entry* fresh = pool_.create();
    fresh->locks = a.locks;
    fresh->write = a.write;
    fresh->t1 = v;
    fresh->t2 = tree::kNoThread;
    fresh->next = head;
    head = fresh;
  }

  /// Sizes the head table for `cells` locations (CellTable::reserve).
  void reserve(std::size_t cells) { heads_.reserve(cells); }

  std::size_t cell_count() const { return heads_.size(); }
  std::size_t memory_bytes() const {
    return heads_.memory_bytes() + pool_.memory_bytes();
  }

 private:
  struct Entry {
    std::uint64_t locks = 0;
    bool write = false;
    tree::ThreadId t1 = tree::kNoThread;  ///< most recent accessor
    tree::ThreadId t2 = tree::kNoThread;  ///< sticky parallel accessor
    Entry* next = nullptr;
  };

  CellTable<Entry*> heads_;  ///< history list per (stream, loc)
  util::Pool<Entry> pool_;
};

/// Determinacy shadow shared by concurrent threads: OwnedDeterminacyShadow
/// shards, each behind its own spin lock (see the header comment).
class DeterminacyShadow {
 public:
  /// `expected_cells` (0: unknown) sizes every shard once, to its share
  /// plus 1/8 slack for uneven hashing; shards that get more still grow.
  explicit DeterminacyShadow(std::uint32_t shards,
                             std::size_t expected_cells = 0)
      : mask_(detail::round_up_pow2(shards == 0 ? 1 : shards) - 1) {
    const std::size_t share = expected_cells / (mask_ + 1);
    shards_.reserve(mask_ + 1);
    for (std::uint32_t i = 0; i <= mask_; ++i) {
      shards_.push_back(std::make_unique<Shard>());
      shards_.back()->cells.reserve(share + share / 8);
    }
  }

  /// Applies one access under the owning shard's lock; `serial` answers
  /// SP queries while the lock is held.
  template <typename SerialFn>
  void apply(StreamId s, const tree::Access& a, tree::ThreadId v,
             SerialFn&& serial, std::uint64_t& race_count) {
    Shard& sh = *shards_[shard_of(a.loc)];
    spr::lock_guard<spr::spin_lock> lock(sh.mu);
    sh.cells.apply(s, a, v, serial, race_count);
  }

  std::uint32_t shard_of(std::uint64_t loc) const {
    return static_cast<std::uint32_t>(detail::mix64(loc) >> 32) & mask_;
  }
  std::uint32_t shard_count() const { return mask_ + 1; }

  std::size_t cell_count() const {
    std::size_t n = 0;
    for (const auto& sh : shards_) n += sh->cells.cell_count();
    return n;
  }

  std::size_t memory_bytes() const {
    std::size_t n = sizeof(*this);
    for (const auto& sh : shards_)
      n += sizeof(Shard) - sizeof(sh->cells) + sh->cells.memory_bytes();
    return n;
  }

 private:
  struct Shard {
    spr::spin_lock mu;
    OwnedDeterminacyShadow cells;
  };

  std::uint32_t mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace spr::race::stream
