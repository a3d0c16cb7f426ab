// Simulated address space.
//
// This is the substrate that replaces hardware memory protection in the
// paper's setup (DESIGN.md, substitution table). Library code in simlib/
// performs every load and store through this class; the first access outside
// a mapped region, or against region permissions, faults at exactly the
// point a real process would have received SIGSEGV. The throwing accessors
// raise AccessFault there; the try_ accessors latch the identical fault in
// the space and return false, so a library function can return with it
// instead of unwinding (support/faults.hpp, "Latched and returned").
//
// Regions are mapped with guard gaps between them so that off-by-one and
// runaway accesses land in unmapped space rather than silently hitting a
// neighbouring mapping. The heap is deliberately a *single* region (see
// heap.hpp): overflow between allocations must corrupt silently, as it does
// on a real chunked allocator.
//
// Fast path (DESIGN.md, "memory fast path"): region lookup goes through a
// small direct-mapped cache (a simulated TLB: a last-hit slot plus a few
// ways keyed by address page) in front of the std::map, and the span API
// below exposes whole accessible runs after a single boundary+permission
// check so hot consumers do not pay one map walk per byte. The cache is an
// invisible optimisation: it is flushed on every layout or permission
// mutation (map/map_at/unmap/protect/restore) and can be disabled entirely
// (set_region_cache_enabled) with no observable difference — tests enforce
// this.
//
// State storage is copy-on-write at page granularity (DESIGN.md, "COW
// testbed states"; cow.hpp has the sealed-page types). Each region keeps a
// full-size contiguous working buffer — so span pointers stay raw, stable
// and contiguous — plus two page bitmaps: `resident` (the working page holds
// valid bytes) and `private` (the working page diverged from the adopted
// image). Reads fault pages in from the image lazily; writes additionally
// privatize the touched pages. snapshot() seals private pages and shares the
// rest by refcount, and restore() drops private pages instead of copying
// bytes back, so both are O(pages touched), not O(address space).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "memmodel/cow.hpp"
#include "support/faults.hpp"

namespace healers::mem {

struct Region {
  Addr base = 0;
  std::uint64_t size = 0;
  Perm perm = Perm::kNone;
  RegionKind kind = RegionKind::kScratch;
  std::string label;

  [[nodiscard]] bool contains(Addr addr) const noexcept {
    return addr >= base && addr - base < size;
  }
  [[nodiscard]] Addr end() const noexcept { return base + size; }
  [[nodiscard]] std::uint64_t page_count() const noexcept {
    return (size + kCowPageSize - 1) >> kCowPageBits;
  }
  // A region is dirty when any of its pages diverged from the adopted image
  // (always true for regions mapped after the last snapshot()/restore(),
  // which are born fully private).
  [[nodiscard]] bool dirty() const noexcept { return private_count > 0; }
  [[nodiscard]] std::uint64_t private_pages() const noexcept { return private_count; }
  [[nodiscard]] std::uint64_t resident_pages() const noexcept { return resident_count; }

  // --- COW state (managed by AddressSpace; do not touch directly) ----------
  // `working` is the region's full-size contiguous byte buffer. It is never
  // reallocated while the region lives, so faulting or privatizing pages
  // never invalidates an outstanding span pointer. `resident`/`private_`
  // bitmaps say which pages of `working` are populated / have diverged from
  // `backing`, the region's sealed page table inside the space's adopted
  // image (nullptr for regions mapped after the last adoption; those are
  // born fully resident and private). Residency is a logically-const detail
  // of the lazy read barrier, hence the mutable qualifiers (same reasoning
  // as the region cache below).
  mutable std::vector<std::byte> working;
  const RegionImage* backing = nullptr;
  mutable std::vector<std::uint64_t> resident;
  std::vector<std::uint64_t> private_;
  mutable std::uint64_t resident_count = 0;
  std::uint64_t private_count = 0;
  mutable bool all_resident = false;

  [[nodiscard]] static bool test_bit(const std::vector<std::uint64_t>& bits,
                                     std::uint64_t i) noexcept {
    return (bits[i >> 6] >> (i & 63)) & 1;
  }
  // Sets bit i; returns true when it was previously clear.
  static bool set_bit(std::vector<std::uint64_t>& bits, std::uint64_t i) noexcept {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    const bool fresh = (bits[i >> 6] & mask) == 0;
    bits[i >> 6] |= mask;
    return fresh;
  }
};

class AddressSpace {
 public:
  AddressSpace();

  // Maps a fresh region of `size` bytes (zero-filled). Base addresses are
  // assigned by a bump allocator with guard gaps. size must be > 0.
  Region& map(std::uint64_t size, Perm perm, RegionKind kind, std::string label);

  // Maps at a caller-chosen base (used by tests to build precise layouts).
  // Throws std::invalid_argument on overlap with an existing region.
  Region& map_at(Addr base, std::uint64_t size, Perm perm, RegionKind kind, std::string label);

  // Unmaps the region with the given base. Subsequent accesses fault.
  void unmap(Addr base);

  // Region lookup; nullptr when the address is unmapped.
  [[nodiscard]] const Region* find(Addr addr) const noexcept;
  [[nodiscard]] Region* find(Addr addr) noexcept;

  [[nodiscard]] std::size_t region_count() const noexcept { return regions_.size(); }

  // Read-only view of every mapped region, sorted by base address — the
  // "cat /proc/pid/maps" of the simulated process. Pointers are valid until
  // the next layout mutation (map/map_at/unmap/restore); consumers (the
  // incident dossier's region map, debug dumps) copy what they need.
  [[nodiscard]] std::vector<const Region*> region_map() const;

  // Changes the permissions of an existing region (simulated mprotect).
  void protect(Addr base, Perm perm);

  // --- Access API (every call is one simulated access) ---
  // All of these throw AccessFault on unmapped addresses, permission
  // violations, or ranges that cross a region boundary. Each also throws a
  // latched fault (the tripwire, see faulted()).

  [[nodiscard]] std::uint8_t load8(Addr addr) const;
  void store8(Addr addr, std::uint8_t value);
  [[nodiscard]] std::uint64_t load64(Addr addr) const;  // little-endian
  void store64(Addr addr, std::uint64_t value);

  // Bulk helpers (bounds-checked as a whole, then copied).
  [[nodiscard]] std::vector<std::byte> read_bytes(Addr addr, std::uint64_t len) const;
  void write_bytes(Addr addr, const std::byte* data, std::uint64_t len);

  // Loader backdoor: copies host bytes into a region IGNORING permissions —
  // how the simulated loader populates read-only segments (rodata interning,
  // the ctype table) before program code runs. Not a simulated access: no
  // ticks, no fault oracle, but the COW write barrier still applies so the
  // bytes survive snapshot/restore like any store. Throws std::logic_error
  // when the range does not sit inside one mapped region.
  void loader_fill(Addr addr, const void* data, std::uint64_t len);

  // --- span fast path -------------------------------------------------------
  // One boundary+permission check for a whole run, then a raw pointer into
  // the region's contiguous working buffer. Pointers are valid only until
  // the next layout mutation (map/map_at/unmap/restore) — consume them
  // immediately. Faulting pages in or privatizing them never moves the
  // buffer, so pointers survive other accesses in between.

  // Pointer to exactly [addr, addr+len); throws AccessFault like check()
  // when the run is unmapped, under-privileged, or crosses a region end.
  // len must be > 0.
  [[nodiscard]] const std::byte* span(Addr addr, std::uint64_t len, Perm want) const;

  // Writable pointer to [addr, addr+len); the whole run is privatized up
  // front (a superset of what the caller may actually write — pages it
  // leaves untouched are sealed again, bit-for-bit, by the next snapshot).
  // len must be > 0.
  [[nodiscard]] std::byte* mutable_span(Addr addr, std::uint64_t len);

  // Longest run accessible with `want` starting at addr (0 when addr itself
  // is not accessible). Bounded by the containing region; callers that must
  // mirror byte-at-a-time semantics across abutting regions re-query at the
  // returned boundary.
  [[nodiscard]] std::uint64_t span_extent(Addr addr, Perm want) const noexcept;

  // Longest run accessible with `want` ENDING at addr inclusive (for
  // backward copies): bytes [addr-r+1, addr].
  [[nodiscard]] std::uint64_t span_extent_back(Addr addr, Perm want) const noexcept;

  // memchr-based NUL scan from addr over readable memory (crossing abutting
  // regions exactly as a per-byte scan would), capped at `cap` bytes.
  // found  -> scanned = offset of the NUL.
  // !found -> scanned = readable bytes consumed; addr+scanned is the first
  //           unreadable byte unless scanned == cap (cap exhausted).
  struct TerminatorScan {
    bool found = false;
    std::uint64_t scanned = 0;
  };
  [[nodiscard]] TerminatorScan scan_terminator(Addr addr, std::uint64_t cap) const noexcept;

  // Reads a NUL-terminated string starting at addr, faulting if the scan
  // leaves mapped readable memory before a NUL. max_len bounds the scan so a
  // missing terminator in a huge region surfaces as a hang upstream.
  [[nodiscard]] std::string read_cstring(Addr addr, std::uint64_t max_len = 1 << 20) const;

  // Copies a host string (plus NUL) into simulated memory.
  void write_cstring(Addr addr, std::string_view text);

  // Validates an access without performing it.
  void check(Addr addr, std::uint64_t len, Perm want) const;

  // --- Non-throwing accessors (the latched-fault path) ---------------------
  // Each performs the access of its throwing twin, or, where that twin would
  // throw AccessFault, latches the identical FaultRecord and returns false
  // with no other effect. A latched fault must be reaped (take_fault) or
  // raised (raise_fault) before the space is used again: until then every
  // tick and checked access throws it, try_ accessors included.
  [[nodiscard]] bool try_load8(Addr addr, std::uint8_t& out) const;
  [[nodiscard]] bool try_store8(Addr addr, std::uint8_t value);
  [[nodiscard]] bool try_load64(Addr addr, std::uint64_t& out) const;
  [[nodiscard]] bool try_store64(Addr addr, std::uint64_t value);
  [[nodiscard]] bool try_check(Addr addr, std::uint64_t len, Perm want) const;
  [[nodiscard]] bool try_read_cstring(Addr addr, std::string& out,
                                      std::uint64_t max_len = 1 << 20) const;

  // --- The fault latch -----------------------------------------------------
  [[nodiscard]] bool faulted() const noexcept { return latched_; }
  // Latches a fault found by library logic rather than by an access (a FILE
  // object with the wrong magic, a call through a bad function pointer).
  void latch_fault(FaultKind kind, Addr address, std::string_view detail) const;
  // Moves the latched fault out and clears the latch.
  [[nodiscard]] FaultRecord take_fault();
  // Throws the latched fault as AccessFault and clears the latch.
  [[noreturn]] void raise_fault() const;

  // True iff [addr, addr+len) is mapped with the requested permission.
  [[nodiscard]] bool accessible(Addr addr, std::uint64_t len, Perm want) const noexcept;

  // An address guaranteed unmapped forever (wild-pointer test value).
  [[nodiscard]] static constexpr Addr wild_pointer() noexcept { return 0xdeadbeef000ULL; }

  // --- region cache controls ------------------------------------------------
  // The cache only changes lookup cost, never results; disabling it is the
  // reference behaviour the golden-tick tests compare against. Hit/miss
  // counters let benches and tests observe that the fast path is actually
  // taken.
  void set_region_cache_enabled(bool enabled) noexcept {
    cache_enabled_ = enabled;
    cache_flush();
  }
  [[nodiscard]] bool region_cache_enabled() const noexcept { return cache_enabled_; }
  [[nodiscard]] std::uint64_t region_cache_hits() const noexcept { return cache_hits_; }
  [[nodiscard]] std::uint64_t region_cache_misses() const noexcept { return cache_misses_; }

  // --- snapshot / restore (the fault injector's process-reset primitive) ---
  // A Snapshot is a refcounted handle to a sealed SpaceImage (cow.hpp):
  // snapshot() seals the pages written since the last adoption and shares
  // every other page with the previously adopted image by refcount, so its
  // cost is O(pages touched). Copying a Snapshot copies one shared_ptr —
  // ANY number of snapshots may coexist and each may be restored any number
  // of times, in any order; forked testbed states are exactly such handles.
  // restore() adopts the snapshot's image: private pages are dropped (never
  // copied back), regions mapped since are unmapped, regions unmapped since
  // reappear, the bump allocator cursor rewinds and a latched fault is
  // cleared, so a restored space is bit-identical to the captured one. Pages
  // are faulted back in lazily on first access after the adoption.
  class Snapshot {
   public:
    Snapshot() = default;

    [[nodiscard]] bool valid() const noexcept { return image_ != nullptr; }
    [[nodiscard]] const std::shared_ptr<const SpaceImage>& image() const noexcept {
      return image_;
    }
    // Sealed region metadata, sorted by base — the snapshot-side analogue of
    // region_map() for tests and footprint accounting.
    [[nodiscard]] const std::vector<RegionImage>& regions() const { return image_->regions; }
    [[nodiscard]] Addr next_base() const { return image_->next_base; }

   private:
    friend class AddressSpace;
    explicit Snapshot(std::shared_ptr<const SpaceImage> image) : image_(std::move(image)) {}
    std::shared_ptr<const SpaceImage> image_;
  };
  [[nodiscard]] Snapshot snapshot();
  void restore(const Snapshot& snap);

  // COW event counters (see cow.hpp). Cumulative for this space's lifetime.
  [[nodiscard]] const CowStats& cow_stats() const noexcept { return cow_; }

 private:
  // The region [addr, addr+len) lies in with perm, or nullptr after latching
  // the fault. Every access fault is described here.
  const Region* try_checked(Addr addr, std::uint64_t len, Perm want) const;
  // try_checked() that throws the fault instead of returning nullptr.
  const Region& checked(Addr addr, std::uint64_t len, Perm want) const;
  Region& checked_mut(Addr addr, std::uint64_t len, Perm want);
  // The accesses proper, on a region checked() or try_checked() returned.
  [[nodiscard]] std::uint8_t read8(const Region& region, Addr addr) const noexcept;
  void write8(Region& region, Addr addr, std::uint8_t value) noexcept;
  [[nodiscard]] std::uint64_t read64(const Region& region, Addr addr) const noexcept;
  void write64(Region& region, Addr addr, std::uint64_t value) noexcept;

  // --- COW barriers ---------------------------------------------------------
  // Read barrier: ensures every page of [off, off+len) is resident in the
  // region's working buffer, copying from the adopted image on demand.
  // Bounds must already be validated. Logically const (see Region).
  void fault_in(const Region& region, std::uint64_t off, std::uint64_t len) const noexcept;
  // Write barrier: fault_in + mark the touched pages private.
  void privatize(Region& region, std::uint64_t off, std::uint64_t len) noexcept;
  // Seals page `p` of `region` (shares the global zero page for all-zero
  // content) — the snapshot-side half of the write barrier.
  [[nodiscard]] PageRef seal_page(const Region& region, std::uint64_t p);
  // Repoints every region at `image` (which snapshot() just built from the
  // live state) and clears private bits; residency is preserved because the
  // working buffers match the new image by construction.
  void adopt(const std::shared_ptr<const SpaceImage>& image);
  // Rebinds one surviving region to its sealed form in a restored image,
  // dropping private pages and keeping residency where the page refs agree.
  void reattach(Region& region, const RegionImage& ri);
  // Builds a live region from its sealed form (empty residency: pages fault
  // in lazily).
  [[nodiscard]] static Region materialize(const RegionImage& ri);

  // --- region cache (sim-TLB) ----------------------------------------------
  // Direct-mapped ways keyed by address page plus a last-hit slot. Entries
  // hold raw Region pointers (std::map nodes are stable until erased), so
  // every operation that can erase or re-create a node flushes the cache.
  // Negative lookups are never cached: a miss in a guard gap stays a miss.
  static constexpr unsigned kCachePageBits = 12;
  static constexpr unsigned kCacheWays = 8;  // power of two

  struct CacheWay {
    Addr page = ~Addr{0};
    Region* region = nullptr;
  };

  [[nodiscard]] Region* cache_lookup(Addr addr) const noexcept;
  void cache_fill(Addr addr, Region* region) const noexcept;
  void cache_flush() const noexcept {
    last_hit_ = nullptr;
    for (CacheWay& way : ways_) way = CacheWay{};
  }

  std::map<Addr, Region> regions_;  // keyed by base
  Addr next_base_;
  // The adopted image: what restore() rewinds to implicitly via Region
  // backing pointers. Held here so those pointers stay alive even after
  // every external Snapshot handle is dropped.
  std::shared_ptr<const SpaceImage> base_image_;
  mutable CowStats cow_;

  bool cache_enabled_ = true;
  // NOTE: the cache and the lazy read barrier make logically-const lookups
  // write these fields (and Region's mutable ones), so a single AddressSpace
  // must not be accessed from multiple threads. Every existing user (one
  // machine per testbed shell) already satisfies this; sealed SpaceImages,
  // by contrast, are immutable and safe to fork from concurrently.
  mutable Region* last_hit_ = nullptr;
  mutable CacheWay ways_[kCacheWays];
  mutable std::uint64_t cache_hits_ = 0;
  mutable std::uint64_t cache_misses_ = 0;

  // The latched fault (valid while latched_). Mutable so that const reads
  // can latch a fault and the tripwire can clear it as it raises.
  mutable FaultRecord latch_;
  mutable bool latched_ = false;
};

}  // namespace healers::mem
