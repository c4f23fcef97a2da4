#pragma once
// Chunked bump-pointer arena — the allocation substrate of the streaming
// race-detection service (race/stream/) and of the order-maintenance
// lists (om/order_list.hpp).
//
// Arena: allocations are O(1) pointer bumps into geometrically growing
// malloc'd chunks; nothing is freed until the arena dies. That is exactly
// the lifetime shape of a detection session (shadow cell tables, ALL-SETS
// history entries and OM items live until the stream closes), and it
// removes the per-item malloc/free traffic that made SP-order
// construction super-linear at 640k threads (the thm5 bench's allocator
// cliff — see BENCH_4.json). create<T>() is restricted to trivially
// destructible T: the arena never runs destructors on chunk teardown.

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace spr::util {

class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() {
    Chunk* c = chunks_;
    while (c != nullptr) {
      Chunk* next = c->next;
      ::operator delete(static_cast<void*>(c));
      c = next;
    }
  }

  void* allocate(std::size_t bytes, std::size_t align) {
    std::uintptr_t p = (cur_ + (align - 1)) & ~static_cast<std::uintptr_t>(align - 1);
    if (p + bytes > end_) {
      grow(bytes + align);
      p = (cur_ + (align - 1)) & ~static_cast<std::uintptr_t>(align - 1);
    }
    cur_ = p + bytes;
    return reinterpret_cast<void*>(p);
  }

  /// Constructs one T in arena storage; it lives until the arena dies.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena teardown never runs element destructors");
    return new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }

  template <typename T>
  T* alloc_array(std::size_t n) {
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// Total bytes obtained from the system allocator (not just handed out).
  std::size_t memory_bytes() const { return allocated_bytes_; }

 private:
  struct Chunk {
    Chunk* next;
  };

  static constexpr std::size_t kFirstChunk = 1024;
  static constexpr std::size_t kMaxChunk = 256 * 1024;

  void grow(std::size_t at_least) {
    std::size_t payload = next_chunk_bytes_;
    if (payload < at_least) payload = at_least;
    const std::size_t total = sizeof(Chunk) + payload;
    auto* c = static_cast<Chunk*>(::operator new(total));
    c->next = chunks_;
    chunks_ = c;
    allocated_bytes_ += total;
    cur_ = reinterpret_cast<std::uintptr_t>(c) + sizeof(Chunk);
    end_ = cur_ + payload;
    if (next_chunk_bytes_ < kMaxChunk) next_chunk_bytes_ *= 2;
  }

  Chunk* chunks_ = nullptr;
  std::uintptr_t cur_ = 0;
  std::uintptr_t end_ = 0;
  std::size_t next_chunk_bytes_ = kFirstChunk;
  std::size_t allocated_bytes_ = 0;
};

}  // namespace spr::util
