#include "memmodel/addr_space.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace healers::mem {

namespace {

// Base of the simulated mappable range; below this everything faults, which
// makes small-integer "pointers" (including NULL and NULL+offset) invalid, as
// on a real OS with a protected zero page.
constexpr Addr kFirstBase = 0x10000;
// Guard gap between consecutive mappings.
constexpr Addr kGuardGap = 0x1000;

[[nodiscard]] std::size_t bitmap_words(std::uint64_t pages) noexcept {
  return static_cast<std::size_t>((pages + 63) / 64);
}

// True when [addr, addr+len) with `want` fits `region`, which is find(addr).
[[nodiscard]] bool admits(const Region* region, Addr addr, std::uint64_t len,
                          Perm want) noexcept {
  return region != nullptr && allows(region->perm, want) &&
         len <= region->size - (addr - region->base);
}

// Describes the fault of an access `region` (find(addr)) does not admit.
// Writes into `out`, reusing its detail buffer. Kept out of line and cold:
// inlined, its string building widens the frame of try_checked(), which
// every checked access runs, and keeps try_checked() itself from being
// inlined (DESIGN.md, "Faults are trapped, not fatal").
[[gnu::cold, gnu::noinline]] void describe_fault(Addr addr, std::uint64_t len, Perm want,
                                                 const Region* region, FaultRecord& out) {
  out.kind = FaultKind::kSegv;
  if (region == nullptr) {
    out.address = addr;
    out.detail.assign("unmapped address");
  } else if (!allows(region->perm, want)) {
    out.address = addr;
    out.detail.assign("permission violation in region '").append(region->label).append("'");
  } else {
    out.address = region->end();
    out.detail.assign("access of ")
        .append(std::to_string(len))
        .append(" bytes runs past region '")
        .append(region->label)
        .append("'");
  }
}

}  // namespace

AddressSpace::AddressSpace() : next_base_(kFirstBase) {}

Region& AddressSpace::map(std::uint64_t size, Perm perm, RegionKind kind, std::string label) {
  if (size == 0) throw std::invalid_argument("AddressSpace::map: zero-size region");
  const Addr base = next_base_;
  next_base_ += size + kGuardGap;
  // Round the next base up to a page-ish boundary for readable addresses.
  next_base_ = (next_base_ + 0xFFF) & ~Addr{0xFFF};
  return map_at(base, size, perm, kind, std::move(label));
}

Region& AddressSpace::map_at(Addr base, std::uint64_t size, Perm perm, RegionKind kind,
                             std::string label) {
  if (size == 0) throw std::invalid_argument("AddressSpace::map_at: zero-size region");
  // Reject overlap: find the first region at or after base, and the one
  // before it.
  auto after = regions_.lower_bound(base);
  if (after != regions_.end() && base + size > after->second.base) {
    throw std::invalid_argument("AddressSpace::map_at: overlaps region " + after->second.label);
  }
  if (after != regions_.begin()) {
    const auto& prev = std::prev(after)->second;
    if (prev.end() > base) {
      throw std::invalid_argument("AddressSpace::map_at: overlaps region " + prev.label);
    }
  }
  Region region;
  region.base = base;
  region.size = size;
  region.perm = perm;
  region.kind = kind;
  region.label = std::move(label);
  region.working.assign(size, std::byte{0});
  // A fresh region has no sealed form to fall back on: born fully resident
  // and fully private, so the next snapshot seals every page (all-zero pages
  // collapse onto the shared zero page).
  const std::uint64_t pages = region.page_count();
  region.resident.assign(bitmap_words(pages), ~std::uint64_t{0});
  region.private_.assign(bitmap_words(pages), ~std::uint64_t{0});
  region.resident_count = pages;
  region.private_count = pages;
  region.all_resident = true;
  region.backing = nullptr;
  auto [it, inserted] = regions_.emplace(base, std::move(region));
  (void)inserted;
  cache_flush();
  return it->second;
}

void AddressSpace::unmap(Addr base) {
  if (regions_.erase(base) == 0) {
    throw std::invalid_argument("AddressSpace::unmap: no region at base");
  }
  cache_flush();
}

Region* AddressSpace::cache_lookup(Addr addr) const noexcept {
  if (last_hit_ != nullptr && last_hit_->contains(addr)) {
    ++cache_hits_;
    return last_hit_;
  }
  const Addr page = addr >> kCachePageBits;
  const CacheWay& way = ways_[page & (kCacheWays - 1)];
  if (way.page == page && way.region->contains(addr)) {
    ++cache_hits_;
    last_hit_ = way.region;
    return way.region;
  }
  ++cache_misses_;
  return nullptr;
}

void AddressSpace::cache_fill(Addr addr, Region* region) const noexcept {
  last_hit_ = region;
  const Addr page = addr >> kCachePageBits;
  ways_[page & (kCacheWays - 1)] = CacheWay{page, region};
}

const Region* AddressSpace::find(Addr addr) const noexcept {
  if (cache_enabled_) {
    if (Region* cached = cache_lookup(addr)) return cached;
  }
  auto it = regions_.upper_bound(addr);
  if (it == regions_.begin()) return nullptr;
  const Region& region = std::prev(it)->second;
  if (!region.contains(addr)) return nullptr;
  // The cache stores non-const pointers (it backs both overloads); regions_
  // is owned by this object, so shedding const here is sound.
  if (cache_enabled_) cache_fill(addr, const_cast<Region*>(&region));
  return &region;
}

Region* AddressSpace::find(Addr addr) noexcept {
  return const_cast<Region*>(static_cast<const AddressSpace*>(this)->find(addr));
}

std::vector<const Region*> AddressSpace::region_map() const {
  std::vector<const Region*> out;
  out.reserve(regions_.size());
  for (const auto& [base, region] : regions_) out.push_back(&region);
  return out;
}

void AddressSpace::protect(Addr base, Perm perm) {
  auto it = regions_.find(base);
  if (it == regions_.end()) {
    throw std::invalid_argument("AddressSpace::protect: no region at base");
  }
  it->second.perm = perm;
  cache_flush();
}

const Region* AddressSpace::try_checked(Addr addr, std::uint64_t len, Perm want) const {
  if (latched_) raise_fault();
  const Region* region = find(addr);
  if (admits(region, addr, len, want)) return region;
  describe_fault(addr, len, want, region, latch_);
  latched_ = true;
  return nullptr;
}

const Region& AddressSpace::checked(Addr addr, std::uint64_t len, Perm want) const {
  const Region* region = try_checked(addr, len, want);
  if (region == nullptr) raise_fault();
  return *region;
}

void AddressSpace::latch_fault(FaultKind kind, Addr address, std::string_view detail) const {
  if (latched_) raise_fault();
  latch_.kind = kind;
  latch_.address = address;
  latch_.detail.assign(detail);
  latched_ = true;
}

FaultRecord AddressSpace::take_fault() {
  latched_ = false;
  return std::move(latch_);
}

void AddressSpace::raise_fault() const {
  latched_ = false;
  throw AccessFault(std::move(latch_));
}

Region& AddressSpace::checked_mut(Addr addr, std::uint64_t len, Perm want) {
  return const_cast<Region&>(checked(addr, len, want));
}

void AddressSpace::fault_in(const Region& region, std::uint64_t off,
                            std::uint64_t len) const noexcept {
  if (region.all_resident) return;
  const std::uint64_t first = off >> kCowPageBits;
  const std::uint64_t last = (off + len - 1) >> kCowPageBits;
  for (std::uint64_t p = first; p <= last; ++p) {
    if (Region::test_bit(region.resident, p)) continue;
    // A non-resident page implies an adopted image to fall back on: regions
    // without backing are born all_resident and short-circuit above.
    const std::uint64_t page_off = p << kCowPageBits;
    const std::uint64_t page_len = std::min<std::uint64_t>(kCowPageSize, region.size - page_off);
    std::memcpy(region.working.data() + page_off, region.backing->pages[p]->data.data(),
                static_cast<std::size_t>(page_len));
    Region::set_bit(region.resident, p);
    ++region.resident_count;
    ++cow_.pages_faulted;
  }
  if (region.resident_count == region.page_count()) region.all_resident = true;
}

void AddressSpace::privatize(Region& region, std::uint64_t off, std::uint64_t len) noexcept {
  if (region.private_count == region.page_count()) return;  // fully diverged already
  fault_in(region, off, len);
  const std::uint64_t first = off >> kCowPageBits;
  const std::uint64_t last = (off + len - 1) >> kCowPageBits;
  for (std::uint64_t p = first; p <= last; ++p) {
    if (Region::set_bit(region.private_, p)) {
      ++region.private_count;
      ++cow_.pages_privatized;
    }
  }
}

std::uint8_t AddressSpace::read8(const Region& region, Addr addr) const noexcept {
  const std::uint64_t off = addr - region.base;
  fault_in(region, off, 1);
  return std::to_integer<std::uint8_t>(region.working[off]);
}

void AddressSpace::write8(Region& region, Addr addr, std::uint8_t value) noexcept {
  const std::uint64_t off = addr - region.base;
  privatize(region, off, 1);
  region.working[off] = std::byte{value};
}

std::uint64_t AddressSpace::read64(const Region& region, Addr addr) const noexcept {
  const std::uint64_t off = addr - region.base;
  fault_in(region, off, 8);
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t value;
    std::memcpy(&value, region.working.data() + off, 8);
    return value;
  } else {
    std::uint64_t value = 0;
    for (int i = 7; i >= 0; --i) {
      value = (value << 8) |
              std::to_integer<std::uint64_t>(region.working[off + static_cast<std::size_t>(i)]);
    }
    return value;
  }
}

void AddressSpace::write64(Region& region, Addr addr, std::uint64_t value) noexcept {
  const std::uint64_t off = addr - region.base;
  privatize(region, off, 8);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(region.working.data() + off, &value, 8);
  } else {
    for (std::size_t i = 0; i < 8; ++i) {
      region.working[off + i] = std::byte{static_cast<std::uint8_t>(value >> (8 * i))};
    }
  }
}

std::uint8_t AddressSpace::load8(Addr addr) const {
  return read8(checked(addr, 1, Perm::kRead), addr);
}

void AddressSpace::store8(Addr addr, std::uint8_t value) {
  write8(checked_mut(addr, 1, Perm::kWrite), addr, value);
}

std::uint64_t AddressSpace::load64(Addr addr) const {
  return read64(checked(addr, 8, Perm::kRead), addr);
}

void AddressSpace::store64(Addr addr, std::uint64_t value) {
  write64(checked_mut(addr, 8, Perm::kWrite), addr, value);
}

bool AddressSpace::try_load8(Addr addr, std::uint8_t& out) const {
  const Region* region = try_checked(addr, 1, Perm::kRead);
  if (region == nullptr) return false;
  out = read8(*region, addr);
  return true;
}

bool AddressSpace::try_store8(Addr addr, std::uint8_t value) {
  const Region* region = try_checked(addr, 1, Perm::kWrite);
  if (region == nullptr) return false;
  write8(const_cast<Region&>(*region), addr, value);
  return true;
}

bool AddressSpace::try_load64(Addr addr, std::uint64_t& out) const {
  const Region* region = try_checked(addr, 8, Perm::kRead);
  if (region == nullptr) return false;
  out = read64(*region, addr);
  return true;
}

bool AddressSpace::try_store64(Addr addr, std::uint64_t value) {
  const Region* region = try_checked(addr, 8, Perm::kWrite);
  if (region == nullptr) return false;
  write64(const_cast<Region&>(*region), addr, value);
  return true;
}

bool AddressSpace::try_check(Addr addr, std::uint64_t len, Perm want) const {
  return len == 0 || try_checked(addr, len, want) != nullptr;
}

std::vector<std::byte> AddressSpace::read_bytes(Addr addr, std::uint64_t len) const {
  if (len == 0) return {};
  const Region& region = checked(addr, len, Perm::kRead);
  const std::uint64_t off = addr - region.base;
  fault_in(region, off, len);
  return {region.working.begin() + static_cast<std::ptrdiff_t>(off),
          region.working.begin() + static_cast<std::ptrdiff_t>(off + len)};
}

void AddressSpace::write_bytes(Addr addr, const std::byte* data, std::uint64_t len) {
  if (len == 0) return;
  Region& region = checked_mut(addr, len, Perm::kWrite);
  const std::uint64_t off = addr - region.base;
  privatize(region, off, len);
  std::memcpy(region.working.data() + off, data, len);
}

void AddressSpace::loader_fill(Addr addr, const void* data, std::uint64_t len) {
  if (len == 0) return;
  Region* region = find(addr);
  if (region == nullptr || len > region->size - (addr - region->base)) {
    throw std::logic_error("AddressSpace::loader_fill: range not inside one mapped region");
  }
  const std::uint64_t off = addr - region->base;
  privatize(*region, off, len);
  std::memcpy(region->working.data() + off, data, len);
}

const std::byte* AddressSpace::span(Addr addr, std::uint64_t len, Perm want) const {
  const Region& region = checked(addr, len, want);
  const std::uint64_t off = addr - region.base;
  fault_in(region, off, len);
  return region.working.data() + off;
}

std::byte* AddressSpace::mutable_span(Addr addr, std::uint64_t len) {
  Region& region = checked_mut(addr, len, Perm::kWrite);
  const std::uint64_t off = addr - region.base;
  privatize(region, off, len);
  return region.working.data() + off;
}

std::uint64_t AddressSpace::span_extent(Addr addr, Perm want) const noexcept {
  const Region* region = find(addr);
  if (region == nullptr || !allows(region->perm, want)) return 0;
  return region->size - (addr - region->base);
}

std::uint64_t AddressSpace::span_extent_back(Addr addr, Perm want) const noexcept {
  const Region* region = find(addr);
  if (region == nullptr || !allows(region->perm, want)) return 0;
  return addr - region->base + 1;
}

AddressSpace::TerminatorScan AddressSpace::scan_terminator(Addr addr,
                                                           std::uint64_t cap) const noexcept {
  // Per-region chunks: abutting regions (map_at permits them) are scanned
  // straight through, exactly as a per-byte load8 loop would walk them.
  std::uint64_t scanned = 0;
  while (scanned < cap) {
    const Addr cursor = addr + scanned;
    const Region* region = find(cursor);
    if (region == nullptr || !allows(region->perm, Perm::kRead)) {
      return {false, scanned};
    }
    const std::uint64_t chunk =
        std::min<std::uint64_t>(region->end() - cursor, cap - scanned);
    fault_in(*region, cursor - region->base, chunk);
    const void* hit = std::memchr(region->working.data() + (cursor - region->base), 0,
                                  static_cast<std::size_t>(chunk));
    if (hit != nullptr) {
      const auto off = static_cast<const std::byte*>(hit) -
                       (region->working.data() + (cursor - region->base));
      return {true, scanned + static_cast<std::uint64_t>(off)};
    }
    scanned += chunk;
  }
  return {false, scanned};
}

bool AddressSpace::try_read_cstring(Addr addr, std::string& out, std::uint64_t max_len) const {
  if (latched_) raise_fault();
  const TerminatorScan scan = scan_terminator(addr, max_len);
  if (!scan.found) {
    if (scan.scanned < max_len) {
      // The scan left readable memory: the fault of the reference per-byte
      // loop's load8 there, with its kind/address/detail.
      (void)try_checked(addr + scan.scanned, 1, Perm::kRead);
    } else {
      latch_fault(FaultKind::kSegv, addr + max_len,
                  "unterminated string scan exceeded " + std::to_string(max_len) + " bytes");
    }
    return false;
  }
  // The scan proved [addr, addr+scanned) readable (and resident); gather
  // per-region chunks (the run may cross abutting regions).
  out.resize(static_cast<std::size_t>(scan.scanned));
  std::uint64_t copied = 0;
  while (copied < scan.scanned) {
    const Addr cursor = addr + copied;
    const Region* region = find(cursor);
    const std::uint64_t chunk =
        std::min<std::uint64_t>(region->end() - cursor, scan.scanned - copied);
    std::memcpy(out.data() + copied, region->working.data() + (cursor - region->base), chunk);
    copied += chunk;
  }
  return true;
}

std::string AddressSpace::read_cstring(Addr addr, std::uint64_t max_len) const {
  std::string out;
  if (!try_read_cstring(addr, out, max_len)) raise_fault();
  return out;
}

void AddressSpace::write_cstring(Addr addr, std::string_view text) {
  check(addr, text.size() + 1, Perm::kWrite);
  write_bytes(addr, reinterpret_cast<const std::byte*>(text.data()), text.size());
  store8(addr + text.size(), 0);
}

void AddressSpace::check(Addr addr, std::uint64_t len, Perm want) const {
  if (!try_check(addr, len, want)) raise_fault();
}

PageRef AddressSpace::seal_page(const Region& region, std::uint64_t p) {
  const std::uint64_t off = p << kCowPageBits;
  const std::uint64_t len = std::min<std::uint64_t>(kCowPageSize, region.size - off);
  const std::byte* src = region.working.data() + off;
  // All-zero pages collapse onto the global zero page: a pristine testbed
  // image mostly describes untouched heap/stack and costs almost nothing.
  if (std::memcmp(src, zero_page()->data.data(), static_cast<std::size_t>(len)) == 0) {
    return zero_page();
  }
  auto page = std::make_shared<Page>();
  std::memcpy(page->data.data(), src, static_cast<std::size_t>(len));
  if (len < kCowPageSize) {
    std::memset(page->data.data() + len, 0, static_cast<std::size_t>(kCowPageSize - len));
  }
  ++cow_.pages_sealed;
  return page;
}

AddressSpace::Snapshot AddressSpace::snapshot() {
  auto image = std::make_shared<SpaceImage>();
  image->regions.reserve(regions_.size());
  for (const auto& [base, region] : regions_) {
    RegionImage ri;
    ri.base = region.base;
    ri.size = region.size;
    ri.perm = region.perm;
    ri.kind = region.kind;
    ri.label = region.label;
    const std::uint64_t pages = region.page_count();
    ri.pages.resize(static_cast<std::size_t>(pages));
    for (std::uint64_t p = 0; p < pages; ++p) {
      if (Region::test_bit(region.private_, p)) {
        ri.pages[p] = seal_page(region, p);
      } else {
        // Unwritten since the last adoption: share the sealed page by ref.
        // (backing is non-null here: fresh regions are born fully private.)
        ri.pages[p] = region.backing->pages[p];
        ++cow_.pages_shared;
      }
    }
    image->regions.push_back(std::move(ri));
  }
  image->next_base = next_base_;
  ++cow_.snapshots_taken;
  adopt(image);
  return Snapshot(std::move(image));
}

void AddressSpace::adopt(const std::shared_ptr<const SpaceImage>& image) {
  // The image was built from regions_ in iteration order, so entries align.
  std::size_t i = 0;
  for (auto& [base, region] : regions_) {
    region.backing = &image->regions[i++];
    if (region.private_count != 0) {
      std::fill(region.private_.begin(), region.private_.end(), 0);
      region.private_count = 0;
    }
    // Residency survives: working bytes equal the new image by construction
    // (private pages were sealed from them, shared pages never diverged).
  }
  base_image_ = image;
}

void AddressSpace::reattach(Region& region, const RegionImage& ri) {
  region.perm = ri.perm;
  region.kind = ri.kind;
  if (region.label != ri.label) region.label = ri.label;
  const std::uint64_t pages = region.page_count();
  const RegionImage* old = region.backing;
  if (old == &ri) {
    // Reset to the image we already track (the per-probe fast path): drop
    // the private pages — their resident bits with them, so the next access
    // faults the sealed bytes back in — and nothing else changes.
    if (region.private_count != 0) {
      for (std::size_t w = 0; w < region.private_.size(); ++w) {
        region.resident[w] &= ~region.private_[w];  // private ⊆ resident
        region.private_[w] = 0;
      }
      region.resident_count -= region.private_count;
      cow_.pages_dropped += region.private_count;
      region.private_count = 0;
    }
  } else {
    // A different image: keep residency only where the sealed pages are the
    // very same allocation (common along fork chains and via the zero page).
    for (std::uint64_t p = 0; p < pages; ++p) {
      if (!Region::test_bit(region.resident, p)) continue;
      const bool is_private = Region::test_bit(region.private_, p);
      const bool same_page =
          !is_private && old != nullptr && old->pages[p].get() == ri.pages[p].get();
      if (!same_page) {
        region.resident[p >> 6] &= ~(std::uint64_t{1} << (p & 63));
        --region.resident_count;
      }
    }
    cow_.pages_dropped += region.private_count;
    std::fill(region.private_.begin(), region.private_.end(), 0);
    region.private_count = 0;
    region.backing = &ri;
  }
  region.all_resident = region.resident_count == pages;
}

Region AddressSpace::materialize(const RegionImage& ri) {
  Region region;
  region.base = ri.base;
  region.size = ri.size;
  region.perm = ri.perm;
  region.kind = ri.kind;
  region.label = ri.label;
  region.working.resize(static_cast<std::size_t>(ri.size));
  const std::uint64_t pages = region.page_count();
  region.resident.assign(bitmap_words(pages), 0);
  region.private_.assign(bitmap_words(pages), 0);
  region.resident_count = 0;
  region.private_count = 0;
  region.all_resident = false;
  region.backing = &ri;
  return region;
}

void AddressSpace::restore(const Snapshot& snap) {
  if (!snap.valid()) {
    throw std::logic_error("AddressSpace::restore: empty snapshot");
  }
  const SpaceImage& image = *snap.image();
  // Both sequences are sorted by base: merge-walk them, unmapping regions
  // absent from the image and rebinding or materializing the rest. No bytes
  // are copied here — dropped private pages fault back in lazily.
  auto live = regions_.begin();
  for (const RegionImage& ri : image.regions) {
    while (live != regions_.end() && live->first < ri.base) {
      live = regions_.erase(live);  // mapped after the fork point
    }
    if (live != regions_.end() && live->first == ri.base && live->second.size == ri.size) {
      reattach(live->second, ri);
      ++live;
      continue;
    }
    if (live != regions_.end() && live->first == ri.base) {
      live = regions_.erase(live);  // same base, different size: remade below
    }
    live = regions_.emplace_hint(live, ri.base, materialize(ri));
    ++live;
  }
  while (live != regions_.end()) live = regions_.erase(live);
  next_base_ = image.next_base;
  base_image_ = snap.image();
  latched_ = false;
  ++cow_.restores;
  cache_flush();
}

bool AddressSpace::accessible(Addr addr, std::uint64_t len, Perm want) const noexcept {
  if (len == 0) return true;
  const Region* region = find(addr);
  if (region == nullptr || !allows(region->perm, want)) return false;
  return len <= region->size - (addr - region->base);
}

}  // namespace healers::mem
