#pragma once
// Sharded shadow memory for the streaming race-detection service and the
// SP-hybrid engine. Locations hash-partition across a power-of-two number
// of shards; each shard is guarded by a spr::spin_lock (util/atomics.hpp)
// and owns its cells outright, so concurrent clients only contend when
// their locations collide on a shard. The lock spins rather than sleeps
// because a cell update holds it for ~100 ns, far less than the futex
// sleep and wake-up a std::mutex pays on each collision — and SP-hybrid's
// shadow collides often. It is built from spr::atomic, so the systematic
// concurrency checker explores its handoffs (see tests/mc_test.cpp's
// shard scenarios).
//
// Two entry points share one per-cell body (apply_locked):
//   apply(s, access, v, ...)   one access under its shard's lock — the
//                              serial detectors (one shard, never
//                              contended) and SP-hybrid, whose workers
//                              share one shadow of 64 shards per worker
//                              and contend whenever two accesses land on
//                              one shard;
//   apply_batch(s, batch, ...) a whole batch of (access, thread) pairs —
//                              the streaming service. A stable counting
//                              sort groups the pairs by shard; touched
//                              shards are then visited in ascending order,
//                              each locked ONCE per batch and never nested
//                              with another, and a shard's pairs run in
//                              batch order. A location always maps to the
//                              same shard, so every cell sees exactly the
//                              access sequence (and SP queries) of the
//                              per-access path.
//
// Shard and slot come from disjoint bits. shard_of(loc) is bits 32 and
// up of mix64(loc) — a function of the location alone, which the batch
// path's ordering argument above needs — and a cell's home slot in its
// shard's table is the low bits of cell_hash(stream, loc). For stream 0
// (the SP-hybrid engine's only stream, and every service's first)
// cell_hash is mix64(loc) itself, so if both read the low bits, every
// key of shard k would start probing at a slot congruent to k modulo the
// shard count S: only 1/S of each table would take probe starts, and the
// linear-probe runs would grow with S.
//
// DeterminacyShadow keeps its cells in SoA columns (keys, writer,
// reader1, reader2 as parallel arrays) in an open-addressed table whose
// storage comes from a per-shard util::Arena: the access hot path is one
// hash probe over a dense key column plus three column writes — no
// per-cell allocation, no pointer chasing, and the whole shard frees in
// O(#chunks). Cells are keyed by (stream, location): streams are
// independent programs that share shard infrastructure, never verdicts.
//
// AllSetsShadow is the lock-aware ALL-SETS protocol (Cheng et al.) over
// the same sharding: per (stream, location) a pruned history of
// (lockset, writer?) entries — each remembering the most recent and one
// sticky parallel thread, mirroring the determinacy protocol — with the
// entries themselves drawn from a per-shard free-list pool.

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

/// One batch's accesses, each with the thread that issued it, in batch
/// order — the input of apply_batch — plus the scratch its shard sort
/// uses. Caller-owned so a stream reuses one allocation across batches
/// (not thread_local: the model checker runs several logical threads on
/// one OS thread).
struct AccessBatch {
  struct Item {
    tree::Access access;
    tree::ThreadId thread;
  };
  std::vector<Item> items;
  std::vector<std::uint32_t> order;   ///< item indices, grouped by shard
  std::vector<std::uint32_t> bounds;  ///< per-shard end offsets into order

  void clear() { items.clear(); }
  void push(const tree::Access& a, tree::ThreadId v) {
    items.push_back({a, v});
  }
  /// Frees every buffer (a finished stream keeps none).
  void release() { *this = AccessBatch{}; }
  std::size_t memory_bytes() const {
    return items.capacity() * sizeof(Item) +
           (order.capacity() + bounds.capacity()) * sizeof(std::uint32_t);
  }
};

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
/// the low bits of cell_hash, disjoint from the bits ShardArray::shard_of
/// reads for tables up to 2^32 slots (see the header comment).
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

/// Open-addressed (linear probing) SoA table keyed by (stream, loc);
/// arrays live in the owning arena and grow by doubling + rehash.
class SoaShadowTable {
 public:
  explicit SoaShadowTable(util::Arena& arena) : arena_(&arena) {}

  std::size_t find_or_insert(StreamId s, std::uint64_t loc) {
    if (count_ * 4 >= cap_ * 3) grow();
    std::size_t i = home_slot(s, loc, cap_);
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

  SoaCellRef cell(std::size_t i) {
    return SoaCellRef{writer_[i], reader1_[i], reader2_[i]};
  }

  std::size_t size() const { return count_; }

 private:
  void grow() {
    const std::size_t ncap = cap_ == 0 ? 64 : cap_ * 2;
    auto* nloc = arena_->alloc_array<std::uint64_t>(ncap);
    auto* nstream = arena_->alloc_array<StreamId>(ncap);
    auto* nwriter = arena_->alloc_array<tree::ThreadId>(ncap);
    auto* nreader1 = arena_->alloc_array<tree::ThreadId>(ncap);
    auto* nreader2 = arena_->alloc_array<tree::ThreadId>(ncap);
    for (std::size_t i = 0; i < ncap; ++i) nstream[i] = kNoStream;
    for (std::size_t i = 0; i < cap_; ++i) {
      if (stream_[i] == kNoStream) continue;
      std::size_t j = home_slot(stream_[i], loc_[i], ncap);
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

  util::Arena* arena_;
  std::size_t cap_ = 0;
  std::size_t count_ = 0;
  std::uint64_t* loc_ = nullptr;
  StreamId* stream_ = nullptr;
  tree::ThreadId* writer_ = nullptr;
  tree::ThreadId* reader1_ = nullptr;
  tree::ThreadId* reader2_ = nullptr;
};

/// The shard array both shadows sit on: `Shard` is a shadow's per-shard
/// state and must have a spr::spin_lock `mu`. Owns the location -> shard map
/// and the two locking disciplines (per access, per batch).
template <typename Shard>
class ShardArray {
 public:
  explicit ShardArray(std::uint32_t shards)
      : mask_(round_up_pow2(shards == 0 ? 1 : shards) - 1) {
    shards_.reserve(mask_ + 1);
    for (std::uint32_t i = 0; i <= mask_; ++i)
      shards_.push_back(std::make_unique<Shard>());
  }

  std::uint32_t shard_of(std::uint64_t loc) const {
    return static_cast<std::uint32_t>(mix64(loc) >> 32) & mask_;
  }
  std::uint32_t size() const { return mask_ + 1; }

  /// Runs `fn(shard)` under the lock of the shard that owns `loc`.
  template <typename Fn>
  void with_shard(std::uint64_t loc, Fn&& fn) {
    Shard& sh = *shards_[shard_of(loc)];
    spr::lock_guard<spr::spin_lock> lock(sh.mu);
    fn(sh);
  }

  /// Runs `fn(shard, item)` for every item of `b`: a stable counting sort
  /// by shard, then one lock per touched shard, in ascending shard order,
  /// never nested; within a shard, items run in batch order.
  template <typename Fn>
  void for_each_by_shard(AccessBatch& b, Fn&& fn) {
    const std::size_t n = b.items.size();
    b.bounds.assign(size(), 0);
    for (const AccessBatch::Item& it : b.items)
      ++b.bounds[shard_of(it.access.loc)];
    std::uint32_t start = 0;
    for (std::uint32_t& x : b.bounds) {
      const std::uint32_t count = x;
      x = start;  // the shard's first slot; the scatter advances it
      start += count;
    }
    b.order.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      b.order[b.bounds[shard_of(b.items[i].access.loc)]++] =
          static_cast<std::uint32_t>(i);
    // Now bounds[k] is the end of shard k's run, and its start is the
    // end of shard k - 1's.
    std::uint32_t lo = 0;
    for (std::uint32_t k = 0; k < size(); ++k) {
      const std::uint32_t hi = b.bounds[k];
      if (lo == hi) continue;
      Shard& sh = *shards_[k];
      spr::lock_guard<spr::spin_lock> lock(sh.mu);
      for (std::uint32_t i = lo; i < hi; ++i) fn(sh, b.items[b.order[i]]);
      lo = hi;
    }
  }

  template <typename Fn>
  std::size_t sum(Fn&& per_shard) const {
    std::size_t n = 0;
    for (const auto& sh : shards_) n += per_shard(*sh);
    return n;
  }

 private:
  std::uint32_t mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace detail

class DeterminacyShadow {
 public:
  explicit DeterminacyShadow(std::uint32_t shards = 16) : shards_(shards) {}

  /// Applies one access under the owning shard's lock. `serial` is
  /// called for SP queries while the lock is held, which is safe because
  /// per-stream SP state has a single writer (the stream's submitter)
  /// and queries never mutate it.
  template <typename SerialFn>
  void apply(StreamId s, const tree::Access& a, tree::ThreadId v,
             SerialFn&& serial, std::uint64_t& race_count) {
    shards_.with_shard(a.loc, [&](Shard& sh) {
      apply_locked(sh, s, a, v, serial, race_count);
    });
  }

  /// Applies every access of `b` (see the header comment), with the same
  /// per-cell effects and queries as calling apply() on each in order.
  template <typename SerialFn>
  void apply_batch(StreamId s, AccessBatch& b, SerialFn&& serial,
                   std::uint64_t& race_count) {
    shards_.for_each_by_shard(b, [&](Shard& sh, const AccessBatch::Item& it) {
      apply_locked(sh, s, it.access, it.thread, serial, race_count);
    });
  }

  std::uint32_t shard_of(std::uint64_t loc) const {
    return shards_.shard_of(loc);
  }
  std::uint32_t shard_count() const { return shards_.size(); }

  std::size_t cell_count() const {
    return shards_.sum([](const Shard& sh) { return sh.table.size(); });
  }

  std::size_t memory_bytes() const {
    return sizeof(*this) + shards_.sum([](const Shard& sh) {
             return sizeof(Shard) + sh.arena.memory_bytes();
           });
  }

 private:
  struct Shard {
    Shard() : table(arena) {}
    spr::spin_lock mu;
    util::Arena arena;
    detail::SoaShadowTable table;
  };

  template <typename SerialFn>
  static void apply_locked(Shard& sh, StreamId s, const tree::Access& a,
                           tree::ThreadId v, SerialFn&& serial,
                           std::uint64_t& race_count) {
    const std::size_t i = sh.table.find_or_insert(s, a.loc);
    detail::SoaCellRef cell = sh.table.cell(i);
    shadow_apply(cell, a, v, serial, race_count);
  }

  detail::ShardArray<Shard> shards_;
};

class AllSetsShadow {
 public:
  explicit AllSetsShadow(std::uint32_t shards = 16) : shards_(shards) {}

  template <typename SerialFn>
  void apply(StreamId s, const tree::Access& a, tree::ThreadId v,
             SerialFn&& serial, std::uint64_t& race_count) {
    shards_.with_shard(a.loc, [&](Shard& sh) {
      apply_locked(sh, s, a, v, serial, race_count);
    });
  }

  template <typename SerialFn>
  void apply_batch(StreamId s, AccessBatch& b, SerialFn&& serial,
                   std::uint64_t& race_count) {
    shards_.for_each_by_shard(b, [&](Shard& sh, const AccessBatch::Item& it) {
      apply_locked(sh, s, it.access, it.thread, serial, race_count);
    });
  }

  std::uint32_t shard_of(std::uint64_t loc) const {
    return shards_.shard_of(loc);
  }
  std::uint32_t shard_count() const { return shards_.size(); }

  std::size_t memory_bytes() const {
    return sizeof(*this) + shards_.sum([](const Shard& sh) {
             return sizeof(Shard) + sh.pool.memory_bytes() +
                    sh.histories.size() * (sizeof(Key) + sizeof(Entry*));
           });
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

  struct Shard {
    spr::spin_lock mu;
    std::unordered_map<Key, Entry*, KeyHash> histories;
    util::Pool<Entry> pool;
  };

  /// One ALL-SETS access: race-check against every entry whose lockset is
  /// disjoint (with at least one writer side), then file the access under
  /// its (lockset, write) key. Keying the history by (lockset, write)
  /// bounds per-access work by the number of distinct locksets used at
  /// the location.
  template <typename SerialFn>
  static void apply_locked(Shard& sh, StreamId s, const tree::Access& a,
                           tree::ThreadId v, SerialFn&& serial,
                           std::uint64_t& race_count) {
    Entry*& head = sh.histories[Key{s, a.loc}];
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
    Entry* fresh = sh.pool.create();
    fresh->locks = a.locks;
    fresh->write = a.write;
    fresh->t1 = v;
    fresh->t2 = tree::kNoThread;
    fresh->next = head;
    head = fresh;
  }

  detail::ShardArray<Shard> shards_;
};

}  // namespace spr::race::stream
