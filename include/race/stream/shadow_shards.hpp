#pragma once
// Shadow memory for every race detector in the repo.
//
// One owner, no lock. OwnedDeterminacyShadow and OwnedAllSetsShadow keep
// their cells in one table and take no lock, because exactly one thread
// of control ever touches them: the serial detectors (race/detector.hpp,
// race/allsets.hpp) and the serial reference (sphybrid/executor.hpp) own
// one each, and every stream of the streaming service owns one, guarded
// by the stream mutex its submitter already holds and freed by finish()
// (race/stream/service.hpp). Cells are keyed by (stream, location), so a
// table can also hold several streams' cells, as a shard below does.
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
//
// OwnedDeterminacyShadow keeps its cells in SoA columns (keys, writer,
// reader1, reader2 as parallel arrays) in an open-addressed table whose
// storage comes from its own util::Arena: the access hot path is one
// hash probe over a dense key column plus three column writes — no
// per-cell allocation, no pointer chasing, and the whole table frees in
// O(#chunks).
//
// OwnedAllSetsShadow is the lock-aware ALL-SETS protocol (Cheng et al.):
// per (stream, location) a pruned history of (lockset, writer?) entries —
// each remembering the most recent and one sticky parallel thread,
// mirroring the determinacy protocol — with the entries drawn from a
// free-list pool.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
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

/// Reference to one logical cell held in SoA columns, shaped so
/// race::shadow_apply runs on it unchanged.
struct SoaCellRef {
  tree::ThreadId& writer;
  tree::ThreadId& reader1;
  tree::ThreadId& reader2;
};

}  // namespace detail

/// Determinacy shadow of one owner: an open-addressed (linear probing)
/// SoA table keyed by (stream, loc), whose arrays live in its own arena
/// and grow by doubling + rehash. Not thread-safe.
class OwnedDeterminacyShadow {
 public:
  /// Applies access `a` by thread `v` (race::shadow_apply); `serial`
  /// answers SP queries.
  template <typename SerialFn>
  void apply(StreamId s, const tree::Access& a, tree::ThreadId v,
             SerialFn&& serial, std::uint64_t& race_count) {
    const std::size_t i = find_or_insert(s, a.loc);
    detail::SoaCellRef cell{writer_[i], reader1_[i], reader2_[i]};
    shadow_apply(cell, a, v, serial, race_count);
  }

  std::size_t cell_count() const { return count_; }

  std::size_t memory_bytes() const {
    return sizeof(*this) + arena_.memory_bytes();
  }

 private:
  std::size_t find_or_insert(StreamId s, std::uint64_t loc) {
    if (count_ * 4 >= cap_ * 3) grow();
    std::size_t i = detail::home_slot(s, loc, cap_);
    while (stream_[i] != kNoStream) {
      if (stream_[i] == s && loc_[i] == loc) return i;
      i = (i + 1) & (cap_ - 1);
    }
    stream_[i] = s;
    loc_[i] = loc;
    writer_[i] = reader1_[i] = reader2_[i] = tree::kNoThread;
    ++count_;
    return i;
  }

  void grow() {
    const std::size_t ncap = cap_ == 0 ? 64 : cap_ * 2;
    auto* nloc = arena_.alloc_array<std::uint64_t>(ncap);
    auto* nstream = arena_.alloc_array<StreamId>(ncap);
    auto* nwriter = arena_.alloc_array<tree::ThreadId>(ncap);
    auto* nreader1 = arena_.alloc_array<tree::ThreadId>(ncap);
    auto* nreader2 = arena_.alloc_array<tree::ThreadId>(ncap);
    for (std::size_t i = 0; i < ncap; ++i) nstream[i] = kNoStream;
    for (std::size_t i = 0; i < cap_; ++i) {
      if (stream_[i] == kNoStream) continue;
      std::size_t j = detail::home_slot(stream_[i], loc_[i], ncap);
      while (nstream[j] != kNoStream) j = (j + 1) & (ncap - 1);
      nloc[j] = loc_[i];
      nstream[j] = stream_[i];
      nwriter[j] = writer_[i];
      nreader1[j] = reader1_[i];
      nreader2[j] = reader2_[i];
    }
    loc_ = nloc;
    stream_ = nstream;
    writer_ = nwriter;
    reader1_ = nreader1;
    reader2_ = nreader2;
    cap_ = ncap;
  }

  util::Arena arena_;
  std::size_t cap_ = 0;
  std::size_t count_ = 0;
  std::uint64_t* loc_ = nullptr;
  StreamId* stream_ = nullptr;
  tree::ThreadId* writer_ = nullptr;
  tree::ThreadId* reader1_ = nullptr;
  tree::ThreadId* reader2_ = nullptr;
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
    Entry*& head = histories_[Key{s, a.loc}];
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

  std::size_t memory_bytes() const {
    return sizeof(*this) + pool_.memory_bytes() +
           histories_.size() * (sizeof(Key) + sizeof(Entry*));
  }

 private:
  struct Entry {
    std::uint64_t locks = 0;
    bool write = false;
    tree::ThreadId t1 = tree::kNoThread;  ///< most recent accessor
    tree::ThreadId t2 = tree::kNoThread;  ///< sticky parallel accessor
    Entry* next = nullptr;
  };

  struct Key {
    StreamId stream;
    std::uint64_t loc;
    bool operator==(const Key& o) const {
      return stream == o.stream && loc == o.loc;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(detail::cell_hash(k.stream, k.loc));
    }
  };

  std::unordered_map<Key, Entry*, KeyHash> histories_;
  util::Pool<Entry> pool_;
};

/// Determinacy shadow shared by concurrent threads: OwnedDeterminacyShadow
/// shards, each behind its own spin lock (see the header comment).
class DeterminacyShadow {
 public:
  explicit DeterminacyShadow(std::uint32_t shards)
      : mask_(detail::round_up_pow2(shards == 0 ? 1 : shards) - 1) {
    shards_.reserve(mask_ + 1);
    for (std::uint32_t i = 0; i <= mask_; ++i)
      shards_.push_back(std::make_unique<Shard>());
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
