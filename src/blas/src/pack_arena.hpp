#pragma once
// pack_arena.hpp — per-thread persistent GEMM packing storage (internal).
//
// The blocked kernels used to allocate their packed A/B panels with
// aligned_buffer inside the (jc, pc) and ic loops — an allocator
// round-trip per panel on the hottest path in the repo.  The arena keeps
// one grow-only 64-byte-aligned allocation per slot per thread, so after
// the first call at a given shape the packing path performs ZERO heap
// allocations (verified by test_fused_engine's AllocationFreeAfterWarmup).
//
// Lifetime rules:
//  - Each thread owns a thread_local arena; acquire() pointers stay valid
//    until the same thread's next acquire() of the SAME slot.  Slots
//    never shrink and are freed only at thread exit.
//  - A GEMM call uses both slots of the CALLING thread: slot_b for B
//    panels (packed before the parallel region, read by every
//    participant) and slot_a for one A-block slice per region seat
//    (seat_slices), so which pool worker runs which block never decides
//    what gets allocated.
//  - A complex GEMM holds slot_planes for its re/im operand planes and
//    plane products while it runs the real component products, which use
//    slots A and B, so the nesting never shares a slot.
//  - Slots must not be held across a nested GEMM call on the same thread;
//    the blocked kernels never do (component products are swept inside
//    one call, and the complex 3M/4M plane products run sequentially,
//    each acquiring afresh).
//
// Packed panels are fully written (edge tiles are zero-padded by the pack
// routines), so acquire() intentionally does not zero memory.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "dcmesh/common/aligned.hpp"

namespace dcmesh::blas::detail {

/// Arena slots: B panels (packed by the calling thread, shared with the
/// parallel region), A blocks (one seat_slices slice per participant
/// of the region, also in the calling thread's arena) and the complex
/// GEMM's real/imaginary planes.
inline constexpr int kArenaSlotB = 0;
inline constexpr int kArenaSlotA = 1;
inline constexpr int kArenaSlotPlanes = 2;
inline constexpr int kArenaSlots = 3;

/// Grow-only aligned scratch slots; one instance per thread.
class pack_arena {
 public:
  pack_arena() noexcept = default;
  pack_arena(const pack_arena&) = delete;
  pack_arena& operator=(const pack_arena&) = delete;

  ~pack_arena() {
    for (auto& s : slots_) {
      ::operator delete[](s.bytes, std::align_val_t{kCacheLineBytes});
    }
  }

  /// Scratch for `count` elements of T in `slot`.  Reuses (and may
  /// invalidate) the slot's previous allocation; grows only when the
  /// running maximum does.
  template <typename T>
  [[nodiscard]] T* acquire(int slot, std::size_t count) {
    slot_storage& s = slots_[slot];
    const std::size_t bytes = count * sizeof(T);
    if (bytes > s.capacity) {
      ::operator delete[](s.bytes, std::align_val_t{kCacheLineBytes});
      s.bytes = nullptr;  // keep the dtor safe if the next line throws
      s.capacity = 0;
      s.bytes = static_cast<std::byte*>(::operator new[](
          bytes, std::align_val_t{kCacheLineBytes}));
      s.capacity = bytes;
      allocation_count().fetch_add(1, std::memory_order_relaxed);
    }
    return reinterpret_cast<T*>(s.bytes);
  }

  /// This thread's arena.
  [[nodiscard]] static pack_arena& for_thread() {
    thread_local pack_arena arena;
    return arena;
  }

  /// Process-wide count of slot (re)allocations — a steady value across
  /// repeated same-shape GEMMs is the "allocation-free after warmup"
  /// property the tests lock.
  [[nodiscard]] static std::uint64_t total_allocations() noexcept {
    return allocation_count().load(std::memory_order_relaxed);
  }

 private:
  struct slot_storage {
    std::byte* bytes = nullptr;
    std::size_t capacity = 0;
  };

  [[nodiscard]] static std::atomic<std::uint64_t>& allocation_count() noexcept {
    static std::atomic<std::uint64_t> count{0};
    return count;
  }

  slot_storage slots_[kArenaSlots];
};

/// Per-seat A-block scratch for a team sweep
/// (sched::team_parallel_for_seats): `slots` slices of at least `count`
/// elements in the CALLING thread's slot A, each starting on a cache
/// line.  Helpers pack into the caller's arena, so once the caller is
/// warm no sweep allocates, whichever thread runs which block.
template <typename T>
class seat_slices {
 public:
  seat_slices(int slots, std::size_t count)
      : stride_(round_up(count)),
        base_(pack_arena::for_thread().acquire<T>(
            kArenaSlotA, static_cast<std::size_t>(slots) * stride_)) {}

  [[nodiscard]] T* operator[](int seat) const noexcept {
    return base_ + static_cast<std::size_t>(seat) * stride_;
  }

 private:
  static std::size_t round_up(std::size_t count) noexcept {
    constexpr std::size_t per_line =
        sizeof(T) >= kCacheLineBytes ? 1 : kCacheLineBytes / sizeof(T);
    return (count + per_line - 1) / per_line * per_line;
  }

  std::size_t stride_;
  T* base_;
};

}  // namespace dcmesh::blas::detail
