// Simulated chunked heap (dlmalloc-style, pre-safe-unlink era).
//
// The heap lives inside ONE arena region of the address space, with chunk
// headers stored inline in simulated memory. This is load-bearing for the
// paper's security demo (§3.4): a string overflow from one allocation runs
// silently into the next chunk's header (no fault — the arena is uniformly
// writable), and a subsequent free() of the victim's neighbour executes the
// classic *unsafe unlink*, handing the attacker an arbitrary 8-byte write.
// The HEALERS security wrapper must detect the corruption (via canaries it
// plants itself) *before* free() reaches the unlink.
//
// Chunk layout (all offsets in simulated memory):
//   +0   u64  size_and_flags   total chunk size incl. header; bit0 = in-use
//   +8   u64  prev_size        size of the previous chunk (unused by the
//                              allocator logic here, kept for fidelity)
//   +16  ...  user data        (free chunks: +16 = fd, +24 = bk)
//
// The free list is doubly linked through fd/bk *in simulated memory*, with a
// sentinel bin at the arena base — so unlink() is two stores through
// attacker-influencable pointers, exactly like the historical exploit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "memmodel/addr_space.hpp"

namespace healers::mem {

struct HeapStats {
  std::uint64_t allocations = 0;     // successful mallocs over lifetime
  std::uint64_t frees = 0;           // successful frees over lifetime
  std::uint64_t failed_allocs = 0;   // mallocs that returned NULL
  std::uint64_t bytes_in_use = 0;    // user bytes currently allocated
  std::uint64_t chunks_in_use = 0;   // live allocations
};

// Snapshot of one chunk, for tests and the overflow demo's narration.
struct ChunkInfo {
  Addr header = 0;       // address of the chunk header
  Addr user = 0;         // header + kHeaderSize
  std::uint64_t size = 0;  // total chunk size incl. header
  bool in_use = false;
};

class Heap {
 public:
  static constexpr std::uint64_t kHeaderSize = 16;
  static constexpr std::uint64_t kAlign = 16;
  // Smallest chunk: header + room for fd/bk when free.
  static constexpr std::uint64_t kMinChunk = kHeaderSize + 16;

  // Carves the heap out of `space` as a fresh arena region.
  Heap(AddressSpace& space, std::uint64_t arena_size, std::string label = "heap");

  // Enables the post-2004 "safe unlinking" integrity check
  // (fd->bk == chunk && bk->fd == chunk, else abort) — the allocator-side
  // mitigation that later glibc shipped. Off by default: the paper's
  // wrapper-based defence targets the pre-hardening allocator, and the
  // ablation bench compares the two.
  void set_safe_unlink(bool enabled) noexcept { safe_unlink_ = enabled; }
  [[nodiscard]] bool safe_unlink() const noexcept { return safe_unlink_; }

  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  // Returns the user address, or 0 (simulated NULL) when the arena cannot
  // satisfy the request. malloc(0) returns a unique minimal allocation, as
  // glibc does.
  [[nodiscard]] Addr malloc(std::uint64_t size);

  // free(0) is a no-op. Freeing a pointer that is not a live user address
  // raises SimAbort (glibc's "invalid pointer" abort). Freeing a chunk whose
  // neighbour's header was corrupted into a fake free chunk executes the
  // unsafe unlink — the attack primitive.
  void free(Addr user);

  // realloc with the usual contract: realloc(0, n) == malloc(n),
  // realloc(p, 0) frees and returns 0. When reading the old chunk faults (a
  // wild `user`), the fault is latched in the address space and realloc
  // returns 0 at once.
  [[nodiscard]] Addr realloc(Addr user, std::uint64_t size);

  // Usable user bytes of a live allocation (chunk size - header).
  [[nodiscard]] std::uint64_t usable_size(Addr user) const;

  // True iff `user` is the user address of a live (in-use) chunk.
  [[nodiscard]] bool is_live(Addr user) const noexcept;

  // Allocator bookkeeping snapshot. The chunk headers and free list live in
  // simulated memory, so a heap restore only makes sense together with an
  // AddressSpace restore covering the arena (Machine::restore does both).
  struct Snapshot {
    HeapStats stats;
    bool safe_unlink = false;
  };
  [[nodiscard]] Snapshot snapshot() const {
    return Snapshot{stats_, safe_unlink_};
  }
  void restore(const Snapshot& snap) noexcept {
    stats_ = snap.stats;
    safe_unlink_ = snap.safe_unlink;
  }

  [[nodiscard]] const HeapStats& stats() const noexcept { return stats_; }
  [[nodiscard]] Addr arena_base() const noexcept { return arena_base_; }
  [[nodiscard]] std::uint64_t arena_size() const noexcept { return arena_size_; }

  // Walks the chunk chain from the arena start. Stops (and truncates) when a
  // header is corrupt — callers use this to *observe* corruption in demos.
  [[nodiscard]] std::vector<ChunkInfo> chunks() const;

  // Integrity check used by tests: every header reachable, sizes sum to the
  // arena, free chunks on the list exactly once. Returns a human-readable
  // problem description, or empty when consistent.
  [[nodiscard]] std::string check_integrity() const;

 private:
  [[nodiscard]] std::uint64_t chunk_size(Addr header) const;
  [[nodiscard]] bool chunk_in_use(Addr header) const;
  void set_chunk(Addr header, std::uint64_t size, bool in_use);

  // Free-list operations (all through simulated memory).
  void list_insert(Addr header);  // push after the bin sentinel
  void unlink(Addr header);       // the unsafe unlink: no integrity checks

  AddressSpace& space_;
  Addr arena_base_ = 0;
  std::uint64_t arena_size_ = 0;
  Addr bin_ = 0;        // sentinel pseudo-chunk address
  Addr first_chunk_ = 0;
  HeapStats stats_;
  bool safe_unlink_ = false;
};

}  // namespace healers::mem
