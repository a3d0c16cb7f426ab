// Unit tests for the simulated chunked heap, including the properties the
// security demo depends on: silent cross-chunk corruption and the unsafe
// unlink's arbitrary-write behaviour.
#include <gtest/gtest.h>

#include "memmodel/heap.hpp"

namespace healers::mem {
namespace {

struct HeapFixture : ::testing::Test {
  AddressSpace space;
  Heap heap{space, 64 << 10};
};

TEST_F(HeapFixture, MallocReturnsAlignedWritableUserMemory) {
  const Addr p = heap.malloc(100);
  ASSERT_NE(p, 0u);
  EXPECT_EQ(p % Heap::kAlign, 0u);
  EXPECT_GE(heap.usable_size(p), 100u);
  space.store8(p, 42);
  space.store8(p + 99, 43);
  EXPECT_EQ(space.load8(p), 42u);
}

TEST_F(HeapFixture, MallocZeroReturnsDistinctLiveAllocations) {
  const Addr a = heap.malloc(0);
  const Addr b = heap.malloc(0);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_TRUE(heap.is_live(a));
}

TEST_F(HeapFixture, ConsecutiveMallocsAreAdjacentChunks) {
  // Load-bearing for the unlink exploit: B's header sits right after A's
  // user area (plus nothing else).
  const Addr a = heap.malloc(64);
  const Addr b = heap.malloc(64);
  EXPECT_EQ(b, a + 64 + Heap::kHeaderSize);
}

TEST_F(HeapFixture, FreeMakesMemoryReusable) {
  const Addr a = heap.malloc(128);
  heap.free(a);
  const Addr b = heap.malloc(128);
  EXPECT_EQ(b, a);  // first fit reuses the freed chunk
}

TEST_F(HeapFixture, FreeNullIsNoop) {
  EXPECT_NO_THROW(heap.free(0));
  EXPECT_EQ(heap.stats().frees, 0u);
}

TEST_F(HeapFixture, DoubleFreeAborts) {
  const Addr p = heap.malloc(32);
  heap.free(p);
  EXPECT_THROW(heap.free(p), SimAbort);
}

TEST_F(HeapFixture, FreeOfNonHeapPointerAborts) {
  const Region& scratch = space.map(64, Perm::kReadWrite, RegionKind::kScratch, "s");
  EXPECT_THROW(heap.free(scratch.base + 16), SimAbort);
  EXPECT_THROW(heap.free(heap.arena_base() + heap.arena_size() + 64), SimAbort);
}

TEST_F(HeapFixture, ExhaustionReturnsNull) {
  const Addr big = heap.malloc(60 << 10);
  ASSERT_NE(big, 0u);
  EXPECT_EQ(heap.malloc(32 << 10), 0u);
  EXPECT_EQ(heap.stats().failed_allocs, 1u);
}

TEST_F(HeapFixture, HugeRequestFailsCleanly) {
  EXPECT_EQ(heap.malloc(~std::uint64_t{0} - 4), 0u);
  EXPECT_EQ(heap.malloc(1ULL << 40), 0u);
}

TEST_F(HeapFixture, ForwardCoalescingMergesNeighbours) {
  const Addr a = heap.malloc(64);
  const Addr b = heap.malloc(64);
  const Addr c = heap.malloc(64);
  ASSERT_NE(c, 0u);
  heap.free(b);
  heap.free(a);  // a coalesces forward into b
  const Addr big = heap.malloc(140);  // only fits in the merged chunk
  EXPECT_EQ(big, a);
  EXPECT_TRUE(heap.check_integrity().empty()) << heap.check_integrity();
}

TEST_F(HeapFixture, StatsTrackLifecycle) {
  const Addr a = heap.malloc(100);
  const Addr b = heap.malloc(50);
  EXPECT_EQ(heap.stats().allocations, 2u);
  EXPECT_EQ(heap.stats().chunks_in_use, 2u);
  EXPECT_GE(heap.stats().bytes_in_use, 150u);
  heap.free(a);
  heap.free(b);
  EXPECT_EQ(heap.stats().frees, 2u);
  EXPECT_EQ(heap.stats().chunks_in_use, 0u);
  EXPECT_EQ(heap.stats().bytes_in_use, 0u);
}

TEST_F(HeapFixture, ReallocGrowsAndPreservesContents) {
  const Addr p = heap.malloc(16);
  space.write_cstring(p, "abcdefghij");
  const Addr q = heap.realloc(p, 256);
  ASSERT_NE(q, 0u);
  EXPECT_EQ(space.read_cstring(q), "abcdefghij");
  EXPECT_GE(heap.usable_size(q), 256u);
}

TEST_F(HeapFixture, ReallocNullActsAsMalloc) {
  const Addr p = heap.realloc(0, 64);
  ASSERT_NE(p, 0u);
  EXPECT_TRUE(heap.is_live(p));
}

TEST_F(HeapFixture, ReallocZeroFrees) {
  const Addr p = heap.malloc(64);
  EXPECT_EQ(heap.realloc(p, 0), 0u);
  EXPECT_FALSE(heap.is_live(p));
}

TEST_F(HeapFixture, IsLiveTracksState) {
  const Addr p = heap.malloc(32);
  EXPECT_TRUE(heap.is_live(p));
  EXPECT_FALSE(heap.is_live(p + 8));  // interior pointer is not a chunk start
  heap.free(p);
  EXPECT_FALSE(heap.is_live(p));
}

TEST_F(HeapFixture, ChunkWalkCoversArena) {
  (void)heap.malloc(64);
  (void)heap.malloc(128);
  std::uint64_t covered = Heap::kMinChunk;  // bin sentinel
  for (const ChunkInfo& info : heap.chunks()) covered += info.size;
  EXPECT_EQ(covered, heap.arena_size());
  EXPECT_TRUE(heap.check_integrity().empty());
}

TEST_F(HeapFixture, OverflowBetweenChunksIsSilent) {
  // The property the whole security demo rests on: writing past an
  // allocation does NOT fault — it corrupts the next chunk's header.
  const Addr a = heap.malloc(64);
  const Addr b = heap.malloc(64);
  ASSERT_NE(b, 0u);
  for (std::uint64_t i = 0; i < 80; ++i) {
    EXPECT_NO_THROW(space.store8(a + i, 0x41));
  }
  EXPECT_FALSE(heap.check_integrity().empty());  // and integrity sees it
}

TEST_F(HeapFixture, IntegrityNamesAnUnlistedFreeChunkInHex) {
  // Empty the free list behind the bin sentinel, which sits right before the
  // arena's first chunk: the one free chunk is then on no list.
  const Addr first = heap.chunks().front().header;
  const Addr bin = first - Heap::kMinChunk;
  space.store64(bin + 16, bin);
  space.store64(bin + 24, bin);
  ASSERT_EQ(first, 0x10020u);
  EXPECT_EQ(heap.check_integrity(), "free chunk at 0x10020 not on list exactly once");
}

TEST_F(HeapFixture, UnsafeUnlinkGivesArbitraryWrite) {
  // Reproduce the exploit primitive in isolation: craft a fake free chunk
  // after `a`, then free(a) and observe the 8-byte write at an address the
  // "attacker" chose.
  const Addr a = heap.malloc(64);
  (void)heap.malloc(64);  // the victim chunk whose header gets forged
  const Region& target = space.map(64, Perm::kReadWrite, RegionKind::kData, "target");
  const Addr fake_hdr = a + 64;
  space.store64(fake_hdr, 80);             // size 80, in-use bit clear
  space.store64(fake_hdr + 8, 80);         // prev_size
  // bk is both the value written to the target AND a pointer the unlink
  // writes through (*(bk+16) = fd) — so, as in the real exploit, it must
  // aim at attacker-writable memory ("shellcode").
  const Addr shellcode = target.base + 32;
  space.store64(fake_hdr + 16, target.base - 24);  // fd: target - 24
  space.store64(fake_hdr + 24, shellcode);         // bk
  heap.free(a);
  EXPECT_EQ(space.load64(target.base), shellcode);       // *(fd+24) = bk
  EXPECT_EQ(space.load64(shellcode + 16), target.base - 24);  // *(bk+16) = fd
}

TEST_F(HeapFixture, SafeUnlinkAbortsOnForgedChunk) {
  heap.set_safe_unlink(true);
  const Addr a = heap.malloc(64);
  (void)heap.malloc(64);
  const Addr fake_hdr = a + 64;
  space.store64(fake_hdr, 80);      // forged "free" neighbour
  space.store64(fake_hdr + 8, 80);
  space.store64(fake_hdr + 16, 0x1234);  // fd/bk fail the integrity check
  space.store64(fake_hdr + 24, 0x5678);
  EXPECT_THROW(heap.free(a), SimAbort);
}

TEST_F(HeapFixture, SafeUnlinkAllowsLegitimateCoalescing) {
  heap.set_safe_unlink(true);
  const Addr a = heap.malloc(64);
  const Addr b = heap.malloc(64);
  (void)heap.malloc(16);  // keep the tail busy
  heap.free(b);
  EXPECT_NO_THROW(heap.free(a));  // genuine free neighbour: unlink passes
  EXPECT_TRUE(heap.check_integrity().empty()) << heap.check_integrity();
}

TEST_F(HeapFixture, TinyArenaRejected) {
  AddressSpace other;
  EXPECT_THROW(Heap(other, 32), std::invalid_argument);
}

TEST(HeapProperty, RandomOpSequencePreservesIntegrity) {
  AddressSpace space;
  Heap heap(space, 64 << 10);
  std::uint64_t state = 12345;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  std::vector<Addr> live;
  for (int i = 0; i < 2000; ++i) {
    if (live.empty() || next() % 3 != 0) {
      const Addr p = heap.malloc(next() % 300);
      if (p != 0) live.push_back(p);
    } else {
      const std::size_t victim = next() % live.size();
      heap.free(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    ASSERT_TRUE(heap.check_integrity().empty())
        << "after op " << i << ": " << heap.check_integrity();
  }
  EXPECT_EQ(heap.stats().chunks_in_use, live.size());
}

}  // namespace
}  // namespace healers::mem
