#pragma once
// Shadow memory for every race detector in the repo.
//
// One cell table. Every one-owner shadow finds a location's state in a
// CellTable:
// an open-addressed, linear-probing table keyed by (stream, loc), whose
// keys sit in two dense columns (loc, stream) beside one value column — a
// ShadowCell for the determinacy protocol, a history-list head for
// ALL-SETS. A probe reads only the key columns until it hits. There is
// no per-cell allocation: a growth takes three columns of twice the size
// from the table's own util::Arena, which frees nothing until the table
// dies. Superseded columns stay allocated (at most as many bytes as the
// live ones), but a growth never returns memory mid-run, so tables that
// grow at once never contend on the system allocator's locks or trims.
//
// Sized once where the program is known. A shadow whose whole program is
// a tree::ParseTree — the serial detectors, SP-hybrid's engine and its
// serial reference — is sized before the run from t.footprint(), a
// HyperLogLog count of the distinct locations the tree touches, kept by
// the tree as its accesses are added, so a table never doubles mid-run
// (each doubling rehashes every cell, ~1.5 moves per final cell over a
// run) and no pass over the accesses precedes the run. The estimate is
// only a starting size: a CellTable that gets more cells still grows.
// The raw access count is not used: on read-sharing programs (stencil
// makes 4 accesses per location) it sizes tables ~4x too large, and the
// extra first-touch page faults cost more than the growth saved. Service
// streams arrive event by event with no footprint known, so their tables
// start at kMinCapacity and double.
//
// One owner, no lock. OwnedDeterminacyShadow and OwnedAllSetsShadow each
// hold one CellTable and take no lock, because exactly one thread of
// control ever touches them: each run of a serial detector
// (race/detector.hpp, which SP-hybrid's serial reference also runs) owns
// one, and every stream of the streaming service owns one, guarded by the stream mutex
// its submitter already holds and freed by finish()
// (race/stream/service.hpp). The stream is part of the key, so a table
// can also hold several streams' cells.
//
// OwnedAllSetsShadow is the lock-aware ALL-SETS protocol (Cheng et al.):
// per (stream, location) a pruned history of (lockset, writer?) entries —
// each remembering the most recent and one sticky parallel thread,
// mirroring the determinacy protocol — with the entries drawn from the
// shadow's own arena, freed with it.
//
// Shared, lock-free. LockFreeDeterminacyShadow is the shadow of SP-hybrid's
// workers (sphybrid/worker.hpp), which run one program and apply accesses
// at once. It is one open-addressed table of 16-byte slots, each a key
// word (loc + 1, claimed once by CAS from 0) and a cell word (the
// ShadowCell packed by PackedCell), sized once to at most 3/4 load from
// the footprint estimate. An access loads its cell, runs
// race::shadow_apply on an unpacked copy and CASes the packed result back,
// retrying on failure; only the attempt that lands counts its races, so
// the per-cell rule is the one body every other shadow runs. No lock word
// or shared counter is written per access: only the cache lines of the
// cells themselves move between cores. A key whose kWindow-slot probe
// window is full of other keys, and the one location whose key would be 0
// (loc == ~0), go to a mutex-guarded OwnedDeterminacyShadow overflow.
// Slots are never freed during a run, so every worker routes a given key
// the same way, and the verdicts stay exact however low the estimate was.
// The window is 512 slots because linear probing at the sizing limit
// pushes keys far from home: inserting 0.75 x 2^k (0.78 x 2^k) keys into
// 2^k slots, for k = 8..22 and both sequential and shuffled location
// orders, left some key 181-190 (254-258) slots from home at k = 20..22,
// and up to ~1000 (~2500) keys beyond 64. A 64-slot window sent such keys
// to the overflow on estimate-sized runs; 512 leaves twice the longest
// distance seen. Only a key sent to the overflow scans the whole window.
// The packed fields are 21 bits of thread id + 1, so the engine takes
// detection only on trees of fewer than 2^21 - 1 threads
// (require_thread_ids).
//
// Misses overlap in batches. Once the table outgrows the caches, an
// access costs one cache miss on its slot, and a locked CAS waits for its
// own miss, so one access at a time leaves every miss exposed. apply_all
// takes a leaf's accesses kBatch at a time, one per L1 fill buffer: it
// first prefetches every home slot of the batch for writing, then applies
// the batch's accesses in order with the per-access apply, so the
// batch's misses are in flight together. A rolling prefetch (prefetch
// access i + k, then apply access i) lost to no prefetch at all: each CAS
// then waits for the prefetch issued just before it.
//
// Cleared by the workers. A table built for several workers is allocated
// uninitialised, and each worker clears one stripe of it in start(),
// which returns only once every worker has arrived, so no access reads a
// slot before it is cleared. A calloc'd table is not free of a serial
// fill: freeing a first table this large raises glibc's mmap threshold,
// so every later one is carved from the heap and calloc memsets all of it
// on the constructing thread (0.7-1.5 ms per 16 MiB on a 4-vCPU Xeon
// host). A table built for one user is cleared in its constructor.
//
// DeterminacyShadow, the spin-locked sharded table SP-hybrid used before,
// has no library caller. It stays only for spbench's traced replay
// (bench/spbench/layers.hpp) and the mc_bug_shardlock_test negative
// control. Its shard index is bits 32 and up of mix64(loc), disjoint from
// the low bits cell_hash gives the home slot: for stream 0 cell_hash is
// mix64(loc) itself, so if both read the low bits, every key of shard k
// would start probing at a slot congruent to k modulo the shard count.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "race/shadow_protocol.hpp"
#include "race/stream/event.hpp"
#include "sptree/sp_maintenance.hpp"
#include "util/arena.hpp"
#include "util/atomics.hpp"
#include "util/footprint.hpp"

namespace spr::race::stream {

/// Every shadow table's smallest capacity: where a CellTable starts and
/// the floor of every up-front sizing.
inline constexpr std::size_t kMinCapacity = 64;

namespace detail {

inline std::uint64_t cell_hash(StreamId s, std::uint64_t loc) {
  return util::mix64(loc ^ (static_cast<std::uint64_t>(s) << 32));
}

/// The home slot of (s, loc) in a table of `cap` (a power of two) slots:
/// the low bits of cell_hash, disjoint from the bits
/// DeterminacyShadow::shard_of reads for tables up to 2^32 slots (see the
/// header comment).
inline std::size_t home_slot(StreamId s, std::uint64_t loc, std::size_t cap) {
  return static_cast<std::size_t>(cell_hash(s, loc)) & (cap - 1);
}

/// The smallest power-of-two capacity, at least kMinCapacity, that holds
/// `cells` at or below 3/4 load: CellTable::reserve's and
/// LockFreeDeterminacyShadow's sizing rule.
inline std::size_t capacity_for(std::size_t cells) {
  std::size_t cap = kMinCapacity;
  while (cap * 3 < cells * 4) cap *= 2;
  return cap;
}

inline std::uint32_t round_up_pow2(std::uint32_t x) {
  std::uint32_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

}  // namespace detail

/// Open-addressed (linear probing) table from (stream, loc) to a V, with
/// the keys in their own columns. Grows by doubling at 3/4 load into
/// fresh columns from the table's arena; reserve() sizes it up front
/// (see the header comment). Not thread-safe.
template <typename V>
class CellTable {
  static_assert(std::is_trivially_copyable_v<V>,
                "columns live in raw arena blocks");

 public:
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

  /// Moves the cells into detail::capacity_for(cells) slots, so inserts
  /// up to that many cells never grow the table. Never shrinks it;
  /// reserve(0) does nothing.
  void reserve(std::size_t cells) {
    const std::size_t ncap = detail::capacity_for(cells);
    if (cells > 0 && ncap > cap_) rehash(ncap);
  }

  std::size_t size() const { return count_; }

  std::size_t memory_bytes() const {
    return sizeof(*this) + arena_.memory_bytes();
  }

 private:
  void grow() { rehash(cap_ == 0 ? kMinCapacity : cap_ * 2); }

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
    Entry* fresh = entries_.create<Entry>();
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
    return heads_.memory_bytes() + entries_.memory_bytes();
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
  util::Arena entries_;  ///< history entries, freed with the shadow
};

/// One ShadowCell in one word, for LockFreeDeterminacyShadow: writer,
/// reader1 and reader2 as three 21-bit fields of thread id + 1, so a
/// field of 0 is "no thread" and a zeroed word is an empty cell.
struct PackedCell {
  static constexpr unsigned kBits = 21;
  static constexpr std::uint64_t kFieldMask = (std::uint64_t{1} << kBits) - 1;
  /// The largest thread id a field holds.
  static constexpr tree::ThreadId kMaxThread =
      static_cast<tree::ThreadId>(kFieldMask - 1);

  static std::uint64_t pack(const ShadowCell& c) {
    return field(c.writer) | (field(c.reader1) << kBits) |
           (field(c.reader2) << (2 * kBits));
  }
  static ShadowCell unpack(std::uint64_t w) {
    return {thread(w & kFieldMask), thread((w >> kBits) & kFieldMask),
            thread((w >> (2 * kBits)) & kFieldMask)};
  }

 private:
  // kNoThread + 1 wraps to 0 in 32 bits, and back.
  static std::uint64_t field(tree::ThreadId t) {
    return static_cast<tree::ThreadId>(t + 1);
  }
  static tree::ThreadId thread(std::uint64_t f) {
    return static_cast<tree::ThreadId>(f) - 1;
  }
};

/// Thrown for a program whose thread ids a PackedCell cannot hold.
class ThreadIdLimitError : public std::length_error {
 public:
  using std::length_error::length_error;
};

/// Determinacy shadow of one program shared by concurrent threads: one
/// lock-free table of CAS-updated packed cells, plus a locked overflow
/// (see the header comment).
class LockFreeDeterminacyShadow {
 public:
  /// Slots a probe may visit (see the header comment for the choice).
  static constexpr std::size_t kWindow = 512;
  /// Accesses apply_all prefetches before applying them: one per L1 fill
  /// buffer (on a 4-vCPU Xeon host, 8 made SP-hybrid detection ~7%
  /// slower and 32 tied).
  static constexpr std::size_t kBatch = 16;
  /// Trees with this many threads or more are rejected.
  static constexpr std::size_t kThreadLimit = PackedCell::kFieldMask;

  /// One applier's tallies; the engine keeps one per worker.
  struct Counters {
    std::uint64_t retries = 0;    ///< cell CASes that lost to another
    std::uint64_t overflows = 0;  ///< accesses sent to the overflow
  };

  /// Throws ThreadIdLimitError unless a program of `threads` threads
  /// stays below kThreadLimit.
  static void require_thread_ids(std::size_t threads) {
    if (threads >= kThreadLimit)
      throw ThreadIdLimitError(
          "lock-free race detection takes fewer than 2^21 - 1 threads");
  }

  /// A table of detail::capacity_for(expected_cells) slots for one user,
  /// cleared before the constructor returns.
  explicit LockFreeDeterminacyShadow(std::size_t expected_cells)
      : LockFreeDeterminacyShadow(expected_cells, 1) {
    start(0);
  }

  /// A table of detail::capacity_for(expected_cells) slots for `workers`
  /// (>= 1) threads, left uncleared: each worker w in [0, workers) calls
  /// start(w) before its first access.
  LockFreeDeterminacyShadow(std::size_t expected_cells, unsigned workers)
      : workers_(workers) {
    const std::size_t cap = detail::capacity_for(expected_cells);
    slots_.reset(alloc_slots(cap));
    mask_ = cap - 1;
    window_ = std::min(kWindow, cap);
  }

  /// Clears stripe `worker` of the table, then returns once every worker
  /// has cleared its own. The acq_rel arrival publishes this stripe to
  /// the workers that arrive later and receives the stripes of those
  /// that arrived earlier; the acquire wait receives the rest.
  void start(unsigned worker) {
    const std::size_t cap = capacity();
    clear(cap * worker / workers_, cap * (worker + 1) / workers_);
#if defined(SPR_MODEL_CHECK) && defined(SPR_MC_SEED_BUG_CLEAR_ARRIVE_RELAXED)
    // Seeded bug (tests/mc_bug_test.cpp): a relaxed arrival publishes
    // nothing, so a worker past the barrier can read another's stripe
    // from before it was cleared.
    arrived_.fetch_add(1, std::memory_order_relaxed);
#else
    arrived_.fetch_add(1, std::memory_order_acq_rel);
#endif
    for (unsigned tries = 0;
         arrived_.load(std::memory_order_acquire) < workers_;)
      spin_pause(tries++);
  }

  /// Applies access `a` by thread `v` (race::shadow_apply); `serial`
  /// answers SP queries and may be asked again on a retry.
  template <typename SerialFn>
  void apply(const tree::Access& a, tree::ThreadId v, SerialFn&& serial,
             std::uint64_t& race_count, Counters& counts) {
    spr::atomic<std::uint64_t>* const cell = find(a.loc);
    if (cell == nullptr) {
      ++counts.overflows;
      spr::lock_guard<spr::mutex> lock(overflow_mu_);
      overflow_.apply(/*stream=*/0, a, v, serial, race_count);
      return;
    }
    std::uint64_t old = cell->load(std::memory_order_acquire);
    for (;;) {
      ShadowCell c = PackedCell::unpack(old);
      std::uint64_t races = 0;
      shadow_apply(c, a, v, serial, races);
      const std::uint64_t next = PackedCell::pack(c);
#if defined(SPR_MODEL_CHECK) && defined(SPR_MC_SEED_BUG_CELL_STORE)
      // Seeded bug (tests/mc_bug_test.cpp): a plain store in place of the
      // CAS overwrites whatever another thread stored since the load.
      if (next != old) cell->store(next, std::memory_order_release);
      race_count += races;
      return;
#else
      if (next == old ||
          cell->compare_exchange_strong(old, next, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        race_count += races;
        return;
      }
      ++counts.retries;  // `old` now holds the cell that won
#endif
    }
  }

  /// Applies the `n` accesses at `accesses`, all by thread `v`, in order:
  /// kBatch at a time, each batch's home slots prefetched for writing
  /// before its first access is applied (see the header comment).
  template <typename SerialFn>
  void apply_all(const tree::Access* accesses, std::size_t n,
                 tree::ThreadId v, SerialFn&& serial,
                 std::uint64_t& race_count, Counters& counts) {
    for (std::size_t b = 0; b < n; b += kBatch) {
      const std::size_t e = std::min(n, b + kBatch);
      // In the loop, not in a helper: GCC finds a function that only
      // prefetches free of side effects and deletes its calls.
#if defined(__GNUC__)
      for (std::size_t i = b; i < e; ++i)
        __builtin_prefetch(
            &slots_[detail::home_slot(/*stream=*/0, accesses[i].loc,
                                      capacity())],
            /*rw=*/1, /*locality=*/3);
#endif
      for (std::size_t i = b; i < e; ++i)
        apply(accesses[i], v, serial, race_count, counts);
    }
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Cells in the table and the overflow. Not safe during a run.
  std::size_t cell_count() const {
    std::size_t n = overflow_.cell_count();
    for (std::size_t i = 0; i <= mask_; ++i)
      if (slots_[i].key.load(std::memory_order_relaxed) != kFree) ++n;
    return n;
  }

 private:
  static constexpr std::uint64_t kFree = 0;  ///< the key of an empty slot

  struct Slot {
    spr::atomic<std::uint64_t> key;   ///< loc + 1, or kFree
    spr::atomic<std::uint64_t> cell;  ///< a PackedCell word
  };

  /// Uncleared slots. Normal builds take them from malloc: Slot is an
  /// aggregate with a trivial destructor, so an implicit-lifetime type
  /// that malloc creates in place, and once clear() has zeroed its bytes
  /// each atomic word holds 0. The checker's atomics keep a store
  /// history, so its builds construct each slot, then fill it with
  /// garbage that only a missed clear leaves visible.
  static Slot* alloc_slots(std::size_t n) {
#if defined(SPR_MODEL_CHECK)
    Slot* s = new Slot[n];
    for (std::size_t i = 0; i < n; ++i) {
      s[i].key.store(~std::uint64_t{0}, std::memory_order_relaxed);
      s[i].cell.store(~std::uint64_t{0}, std::memory_order_relaxed);
    }
    return s;
#else
    static_assert(sizeof(Slot) == 16 && std::is_trivially_destructible_v<Slot>,
                  "slots are two bare words");
    void* p = std::malloc(n * sizeof(Slot));
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<Slot*>(p);
#endif
  }

  struct FreeSlots {
    void operator()(Slot* s) const {
#if defined(SPR_MODEL_CHECK)
      delete[] s;
#else
      std::free(s);
#endif
    }
  };

  /// Empties slots [begin, end): every key free, every cell empty.
  void clear(std::size_t begin, std::size_t end) {
#if defined(SPR_MODEL_CHECK)
    for (std::size_t i = begin; i < end; ++i) {
      slots_[i].key.store(kFree, std::memory_order_relaxed);
      slots_[i].cell.store(0, std::memory_order_relaxed);
    }
#else
    std::memset(static_cast<void*>(slots_.get() + begin), 0,
                (end - begin) * sizeof(Slot));
#endif
  }

  /// The cell of `loc`'s key, claiming a free slot of its probe window
  /// for it; nullptr if the key belongs in the overflow.
  spr::atomic<std::uint64_t>* find(std::uint64_t loc) {
    const std::uint64_t key = loc + 1;
    if (key == kFree) return nullptr;  // loc == ~0
    std::size_t i = detail::home_slot(/*stream=*/0, loc, capacity());
    for (std::size_t n = 0; n < window_; ++n, i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      std::uint64_t k = s.key.load(std::memory_order_acquire);
      if (k == kFree && s.key.compare_exchange_strong(
                            k, key, std::memory_order_acq_rel,
                            std::memory_order_acquire))
        return &s.cell;
      if (k == key) return &s.cell;  // ours, or claimed for it just now
    }
    return nullptr;
  }

  const unsigned workers_;
  spr::atomic<unsigned> arrived_{0};  ///< workers past their clear
  std::unique_ptr<Slot[], FreeSlots> slots_;
  std::size_t mask_ = 0;
  std::size_t window_ = 0;  ///< kWindow, or the whole table if smaller
  spr::mutex overflow_mu_;
  OwnedDeterminacyShadow overflow_;  ///< guarded by overflow_mu_
};

/// Determinacy shadow shared by concurrent threads: OwnedDeterminacyShadow
/// shards, each behind its own spr::spin_lock, which spins rather than
/// sleeps because a cell update holds it for ~100 ns. No library code
/// uses it any more; it stays for spbench's traced replay
/// (bench/spbench/layers.hpp) and the mc_bug_shardlock_test negative
/// control (see the header comment).
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
    return static_cast<std::uint32_t>(util::mix64(loc) >> 32) & mask_;
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
