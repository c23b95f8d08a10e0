// Monotonic per-tick arena.
//
// The scheduling tick builds many short-lived containers (candidate lists,
// repair queues, audit scratch) whose lifetimes all end when the tick does.
// An Arena turns those N mallocs into bump-pointer arithmetic: allocation is
// a pointer increment within a retained chunk, and Reset() at the start of
// the next tick rewinds the cursor without returning memory to the system.
// After a warmup tick the chunk list has reached its high-water mark and a
// steady-state tick performs zero heap allocations.
//
// Discipline:
//  * Reset() must only run when no arena-backed object is alive — the owner
//    (scheduler / resolver) resets at tick start, before any allocation.
//  * Arena-backed vectors never free; growth abandons the old block inside
//    the arena (reclaimed wholesale by the next Reset). Reserve up front
//    where sizes are known.
//  * Single-threaded by design: one arena per owning component, never shared
//    across the ThreadPool (each concurrent shard solve owns its solver and
//    so its own arena, keeping results deterministic).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "common/check.h"

namespace aladdin {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t first_chunk_bytes = kDefaultChunkBytes)
      : first_chunk_bytes_(first_chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Bump allocation. Alignment must be a power of two.
  void* Allocate(std::size_t bytes, std::size_t align) {
    ALADDIN_DCHECK((align & (align - 1)) == 0)
        << "Arena: alignment " << align << " not a power of two";
    used_ += bytes;
    for (; chunk_ < chunks_.size(); ++chunk_, offset_ = 0) {
      Chunk& c = chunks_[chunk_];
      const std::size_t aligned = AlignedOffset(c, offset_, align);
      if (aligned + bytes <= c.size) {
        offset_ = aligned + bytes;
        return c.data.get() + aligned;
      }
    }
    // No retained chunk fits: grow geometrically (warmup only — a
    // steady-state tick never reaches this).
    std::size_t size = chunks_.empty() ? first_chunk_bytes_
                                       : chunks_.back().size * 2;
    while (size < bytes + align) size *= 2;
    chunks_.push_back(Chunk{std::make_unique<std::byte[]>(size), size});
    chunk_ = chunks_.size() - 1;
    const std::size_t aligned = AlignedOffset(chunks_.back(), 0, align);
    offset_ = aligned + bytes;
    return chunks_.back().data.get() + aligned;
  }

  template <typename T>
  T* AllocateArray(std::size_t n) {
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  // Rewind to empty, keeping every chunk. Call only between ticks, when no
  // arena-backed object is alive.
  void Reset() {
    chunk_ = 0;
    offset_ = 0;
    used_ = 0;
  }

  // Bytes handed out since the last Reset (monotonic within a tick; growth
  // waste from abandoned vector blocks counts — it is real arena pressure).
  [[nodiscard]] std::size_t bytes_used() const { return used_; }

  // Total bytes retained across resets (the high-water footprint).
  [[nodiscard]] std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };
  // Smallest offset >= from whose absolute address is `align`-aligned
  // (offsets alone are not enough: the chunk base is only new[]-aligned).
  static std::size_t AlignedOffset(const Chunk& c, std::size_t from,
                                   std::size_t align) {
    const auto base = reinterpret_cast<std::uintptr_t>(c.data.get());
    const auto mask = static_cast<std::uintptr_t>(align - 1);
    return static_cast<std::size_t>(((base + from + mask) & ~mask) - base);
  }
  std::size_t first_chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;   // current chunk index
  std::size_t offset_ = 0;  // bump cursor within the current chunk
  std::size_t used_ = 0;
};

// Minimal std::allocator adaptor so standard containers can live in the
// arena: `std::vector<T, ArenaAllocator<T>> v(ArenaAllocator<T>(&arena));`.
// deallocate() is a no-op — memory returns wholesale at Arena::Reset().
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) { return arena_->AllocateArray<T>(n); }
  void deallocate(T*, std::size_t) {}  // monotonic: freed by Arena::Reset

  [[nodiscard]] Arena* arena() const { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }

 private:
  Arena* arena_;
};

// The idiomatic per-tick container: construct (or clear) after the owning
// arena's Reset, drop before the next one.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace aladdin
