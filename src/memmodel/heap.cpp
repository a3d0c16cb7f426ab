#include "memmodel/heap.hpp"

#include <algorithm>
#include <stdexcept>

namespace healers::mem {

namespace {

constexpr std::uint64_t kInUseBit = 0x1;

[[nodiscard]] std::uint64_t round_up(std::uint64_t value, std::uint64_t align) {
  return (value + align - 1) & ~(align - 1);
}

}  // namespace

Heap::Heap(AddressSpace& space, std::uint64_t arena_size, std::string label) : space_(space) {
  if (arena_size < 4 * kMinChunk) {
    throw std::invalid_argument("Heap: arena too small");
  }
  arena_size = round_up(arena_size, kAlign);
  Region& arena = space_.map(arena_size, Perm::kReadWrite, RegionKind::kHeapArena,
                             std::move(label));
  arena_base_ = arena.base;
  arena_size_ = arena_size;

  // Bin sentinel occupies the first kMinChunk bytes; it is never allocated.
  bin_ = arena_base_;
  set_chunk(bin_, kMinChunk, true);  // marked in-use so coalescing never eats it
  space_.store64(bin_ + 16, bin_);   // fd
  space_.store64(bin_ + 24, bin_);   // bk

  // One big free chunk covers the rest of the arena.
  first_chunk_ = bin_ + kMinChunk;
  set_chunk(first_chunk_, arena_size_ - kMinChunk, false);
  list_insert(first_chunk_);
}

std::uint64_t Heap::chunk_size(Addr header) const {
  return space_.load64(header) & ~(kAlign - 1);
}

bool Heap::chunk_in_use(Addr header) const { return (space_.load64(header) & kInUseBit) != 0; }

void Heap::set_chunk(Addr header, std::uint64_t size, bool in_use) {
  space_.store64(header, size | (in_use ? kInUseBit : 0));
}

void Heap::list_insert(Addr header) {
  // Insert right after the bin sentinel: bin <-> header <-> old_first.
  const Addr old_first = space_.load64(bin_ + 16);
  space_.store64(header + 16, old_first);  // header.fd = old_first
  space_.store64(header + 24, bin_);       // header.bk = bin
  space_.store64(old_first + 24, header);  // old_first.bk = header
  space_.store64(bin_ + 16, header);       // bin.fd = header
}

void Heap::unlink(Addr header) {
  // THE unsafe unlink (default): fd and bk are read from (possibly
  // attacker-written) simulated memory and dereferenced with no sanity
  // check. Two arbitrary-ish stores follow. With safe_unlink_ set, the
  // post-2004 glibc integrity check runs first and a forged chunk aborts.
  const Addr fd = space_.load64(header + 16);
  const Addr bk = space_.load64(header + 24);
  if (safe_unlink_) {
    const bool fd_ok = space_.accessible(fd + 24, 8, Perm::kRead) &&
                       space_.load64(fd + 24) == header;
    const bool bk_ok = space_.accessible(bk + 16, 8, Perm::kRead) &&
                       space_.load64(bk + 16) == header;
    if (!fd_ok || !bk_ok) {
      throw SimAbort("corrupted double-linked list (safe unlinking)");
    }
  }
  space_.store64(fd + 24, bk);  // fd->bk = bk
  space_.store64(bk + 16, fd);  // bk->fd = fd
}

Addr Heap::malloc(std::uint64_t size) {
  const std::uint64_t need =
      std::max<std::uint64_t>(kMinChunk, round_up(size + kHeaderSize, kAlign));
  if (need < size) {  // overflow in round-up (huge request)
    ++stats_.failed_allocs;
    return 0;
  }

  // First fit over the free list.
  for (Addr cur = space_.load64(bin_ + 16); cur != bin_; cur = space_.load64(cur + 16)) {
    const std::uint64_t cur_size = chunk_size(cur);
    if (cur_size < need) continue;
    unlink(cur);
    if (cur_size - need >= kMinChunk) {
      // Split: tail becomes a new free chunk.
      const Addr tail = cur + need;
      set_chunk(tail, cur_size - need, false);
      list_insert(tail);
      set_chunk(cur, need, true);
    } else {
      set_chunk(cur, cur_size, true);
    }
    ++stats_.allocations;
    ++stats_.chunks_in_use;
    stats_.bytes_in_use += chunk_size(cur) - kHeaderSize;
    return cur + kHeaderSize;
  }
  ++stats_.failed_allocs;
  return 0;
}

void Heap::free(Addr user) {
  if (user == 0) return;
  const Addr header = user - kHeaderSize;
  if (header < arena_base_ + kMinChunk || header >= arena_base_ + arena_size_) {
    throw SimAbort("free(): invalid pointer");
  }
  if (!chunk_in_use(header)) {
    throw SimAbort("free(): double free or corruption");
  }
  std::uint64_t size = chunk_size(header);
  if (size < kMinChunk || header + size > arena_base_ + arena_size_) {
    throw SimAbort("free(): invalid chunk size");
  }

  stats_.bytes_in_use -= size - kHeaderSize;
  --stats_.chunks_in_use;
  ++stats_.frees;

  // Forward coalescing: if the next chunk claims to be free, unlink it and
  // absorb it. A corrupted neighbour header (overflowed by the attacker to
  // look free, with crafted fd/bk) drives unlink() into the arbitrary write.
  const Addr next = header + size;
  if (next + kHeaderSize <= arena_base_ + arena_size_) {
    const std::uint64_t next_size = chunk_size(next);
    if (!chunk_in_use(next) && next_size >= kMinChunk &&
        next + next_size <= arena_base_ + arena_size_) {
      unlink(next);
      size += next_size;
    }
  }

  set_chunk(header, size, false);
  list_insert(header);
}

Addr Heap::realloc(Addr user, std::uint64_t size) {
  if (user == 0) return malloc(size);
  if (size == 0) {
    free(user);
    return 0;
  }
  std::uint64_t header = 0;
  if (!space_.try_load64(user - kHeaderSize, header)) return 0;
  const std::uint64_t old_usable = (header & ~(kAlign - 1)) - kHeaderSize;
  const Addr fresh = malloc(size);
  if (fresh == 0) return 0;
  const std::uint64_t copy = std::min(old_usable, size);
  if (copy > 0) {
    if (!space_.try_check(user, copy, Perm::kRead)) return 0;
    const auto bytes = space_.read_bytes(user, copy);
    space_.write_bytes(fresh, bytes.data(), bytes.size());
  }
  free(user);
  return fresh;
}

std::uint64_t Heap::usable_size(Addr user) const {
  const Addr header = user - kHeaderSize;
  return chunk_size(header) - kHeaderSize;
}

bool Heap::is_live(Addr user) const noexcept {
  if (user < arena_base_ + kMinChunk + kHeaderSize || user >= arena_base_ + arena_size_) {
    return false;
  }
  // Walk the chunk chain looking for an in-use chunk with this user address.
  for (const ChunkInfo& info : chunks()) {
    if (info.user == user) return info.in_use;
  }
  return false;
}

std::vector<ChunkInfo> Heap::chunks() const {
  std::vector<ChunkInfo> out;
  Addr cur = first_chunk_;
  while (cur + kHeaderSize <= arena_base_ + arena_size_) {
    const std::uint64_t size = chunk_size(cur);
    if (size < kMinChunk || cur + size > arena_base_ + arena_size_) break;  // corrupt
    out.push_back(ChunkInfo{cur, cur + kHeaderSize, size, chunk_in_use(cur)});
    cur += size;
  }
  return out;
}

std::string Heap::check_integrity() const {
  std::uint64_t covered = kMinChunk;  // bin sentinel
  const std::vector<ChunkInfo> chain = chunks();
  for (const ChunkInfo& info : chain) covered += info.size;
  if (covered != arena_size_) {
    return "chunk chain covers " + std::to_string(covered) + " of " +
           std::to_string(arena_size_) + " arena bytes";
  }
  // Every free chunk must be on the list exactly once, and vice versa.
  std::vector<Addr> on_list;
  for (Addr cur = space_.load64(bin_ + 16); cur != bin_; cur = space_.load64(cur + 16)) {
    on_list.push_back(cur);
    if (on_list.size() > chain.size() + 1) return "free list cycle";
  }
  std::size_t free_chunks = 0;
  for (const ChunkInfo& info : chain) {
    if (info.in_use) continue;
    ++free_chunks;
    if (std::count(on_list.begin(), on_list.end(), info.header) != 1) {
      return "free chunk at " + hex_addr(info.header) + " not on list exactly once";
    }
  }
  if (free_chunks != on_list.size()) {
    return "free list has " + std::to_string(on_list.size()) + " entries but chain has " +
           std::to_string(free_chunks) + " free chunks";
  }
  return {};
}

}  // namespace healers::mem
