// Bulk memory primitives for the simulated C library.
//
// Each helper is a drop-in replacement for a reference per-byte loop of the
// shape {tick(); access...} and must be OBSERVABLY IDENTICAL to it: same
// step/cycle totals, same fault kind/address/detail at the same step, same
// partial side effects when the step budget hangs mid-loop (DESIGN.md,
// "memory fast path"). The equivalence argument, used throughout:
//
//   n iterations of {tick; work} either all complete (tick(n), n units of
//   work) or hang after m = Machine::budget_units(n) complete iterations —
//   so commit m units of work, tick(m) (reaching the budget exactly), then
//   one more tick() raises SimHang at step budget+1, just like iteration
//   m+1 of the reference loop. Faults are replayed literally: charge the one
//   tick the reference loop spends before the bad access, then perform the
//   original byte access through try_load8/try_store8, which latches the
//   identical fault address and detail text (support/faults.hpp).
//
// A helper that latches a fault returns at once, with no further tick,
// store or host-side effect; its return value is then meaningless. Callers
// test Machine::faulted() before doing anything else and return at once
// too, so the fault reaches the supervisor without unwinding.
//
// All helpers walk per-region chunks via span_extent, so runs crossing
// abutting regions (map_at permits them) behave exactly like a per-byte
// scan: the walk continues across the seam and faults only where a byte
// access would.
#pragma once

#include <algorithm>
#include <cstring>

#include "memmodel/machine.hpp"

namespace healers::simlib::bulk {

using mem::Addr;
using mem::Perm;

// Ticks `done` completed units, then raises the hang the reference loop
// would have raised while starting unit done+1.
inline void settle(mem::Machine& m, std::uint64_t done, std::uint64_t want) {
  if (done != 0) m.tick(done);
  if (done < want) m.tick();  // throws SimHang at step budget+1
}

// The reference loop ticks, then the byte access faults: hang wins over
// fault at the same byte, and the latched fault carries the per-byte
// address/detail. Only called where span_extent found addr unreadable.
inline void replay_load(mem::Machine& m, Addr addr) {
  m.tick();
  std::uint8_t byte = 0;
  (void)m.mem().try_load8(addr, byte);
}

// The reference copy loop's byte step where a chunk is empty: tick, load
// the source byte, store it. One of the two accesses faults and latches;
// returns false then.
inline bool replay_copy(mem::Machine& m, Addr dest, Addr src) {
  m.tick();
  mem::AddressSpace& as = m.mem();
  std::uint8_t byte = 0;
  return as.try_load8(src, byte) && as.try_store8(dest, byte);
}

// Offset of the first NUL or `stop` byte in p[0, n), or n when neither is
// there. The NUL is found first and `stop` is searched for only before it,
// so a short string at the start of a large region costs its own length,
// not the region's. A NUL `stop` finds the terminator.
inline std::uint64_t find_nul_or(const std::byte* p, std::uint64_t n, std::uint8_t stop) {
  const void* nul = std::memchr(p, 0, n);
  const std::uint64_t end =
      nul != nullptr ? static_cast<std::uint64_t>(static_cast<const std::byte*>(nul) - p) : n;
  const void* hit = std::memchr(p, stop, end);
  return hit != nullptr ? static_cast<std::uint64_t>(static_cast<const std::byte*>(hit) - p)
                        : end;
}

// strlen core: length of the NUL-terminated string at `s`, ticking once per
// scanned byte including the terminator.
inline std::uint64_t scan_len(mem::Machine& m, Addr s) {
  mem::AddressSpace& as = m.mem();
  std::uint64_t n = 0;
  while (true) {
    const std::uint64_t extent = as.span_extent(s + n, Perm::kRead);
    if (extent == 0) {
      replay_load(m, s + n);  // the scan left readable memory
      return 0;
    }
    const std::byte* p = as.span(s + n, extent, Perm::kRead);
    const void* hit = std::memchr(p, 0, extent);
    const auto k = hit != nullptr
                       ? static_cast<std::uint64_t>(static_cast<const std::byte*>(hit) - p)
                       : extent;
    const std::uint64_t want = hit != nullptr ? k + 1 : extent;
    settle(m, m.budget_units(want), want);
    if (hit != nullptr) return n + k;
    n += extent;
  }
}

// strnlen core: like scan_len but never looks past `cap` bytes.
inline std::uint64_t scan_len_bounded(mem::Machine& m, Addr s, std::uint64_t cap) {
  mem::AddressSpace& as = m.mem();
  std::uint64_t n = 0;
  while (n < cap) {
    const std::uint64_t extent = as.span_extent(s + n, Perm::kRead);
    if (extent == 0) {
      replay_load(m, s + n);
      return 0;
    }
    const std::uint64_t c = std::min(extent, cap - n);
    const std::byte* p = as.span(s + n, c, Perm::kRead);
    const void* hit = std::memchr(p, 0, c);
    const auto k = hit != nullptr
                       ? static_cast<std::uint64_t>(static_cast<const std::byte*>(hit) - p)
                       : c;
    const std::uint64_t want = hit != nullptr ? k + 1 : c;
    settle(m, m.budget_units(want), want);
    if (hit != nullptr) return n + k;
    n += c;
  }
  return cap;
}

// memcpy core: forward byte copy of n bytes, one tick per byte, with the
// reference's (lack of) overlap handling: a forward-overlapping copy
// (src < dest < src+n) self-replicates with period dest-src, because chunks
// are capped at that gap and each chunk re-reads what earlier chunks wrote.
// dest <= src overlap is handled by per-chunk memmove (reads win, as in the
// byte loop).
inline void copy_forward(mem::Machine& m, Addr dest, Addr src, std::uint64_t n) {
  mem::AddressSpace& as = m.mem();
  const std::uint64_t gap = dest > src ? dest - src : 0;
  std::uint64_t i = 0;
  while (i < n) {
    std::uint64_t c = std::min(as.span_extent(src + i, Perm::kRead),
                               as.span_extent(dest + i, Perm::kWrite));
    c = std::min(c, n - i);
    if (gap != 0) c = std::min(c, gap);
    if (c == 0) {
      // Faults at src when it ran out, otherwise at dest.
      if (!replay_copy(m, dest + i, src + i)) return;
      ++i;
      continue;
    }
    const std::uint64_t w = m.budget_units(c);
    if (w != 0) {
      std::memmove(as.mutable_span(dest + i, w), as.span(src + i, w, Perm::kRead), w);
    }
    settle(m, w, c);
    i += c;
  }
}

// memmove backward core (dest > src): copies n bytes from the top down,
// one tick per byte. Reads always see original bytes (writes land above
// every remaining read), so per-chunk memmove of the original content is
// exact.
inline void copy_backward(mem::Machine& m, Addr dest, Addr src, std::uint64_t n) {
  mem::AddressSpace& as = m.mem();
  std::uint64_t done = 0;
  while (done < n) {
    const Addr rs = src + (n - done) - 1;  // highest uncopied source byte
    const Addr rd = dest + (n - done) - 1;
    std::uint64_t c = std::min(as.span_extent_back(rs, Perm::kRead),
                               as.span_extent_back(rd, Perm::kWrite));
    c = std::min(c, n - done);
    if (c == 0) {
      if (!replay_copy(m, rd, rs)) return;
      ++done;
      continue;
    }
    const std::uint64_t w = m.budget_units(c);
    if (w != 0) {
      std::memmove(as.mutable_span(rd - w + 1, w), as.span(rs - w + 1, w, Perm::kRead), w);
    }
    settle(m, w, c);
    done += c;
  }
}

// memset core: n bytes of `value`, one tick per byte.
inline void fill(mem::Machine& m, Addr dest, std::uint8_t value, std::uint64_t n) {
  mem::AddressSpace& as = m.mem();
  std::uint64_t i = 0;
  while (i < n) {
    const std::uint64_t c = std::min(as.span_extent(dest + i, Perm::kWrite), n - i);
    if (c == 0) {
      m.tick();
      if (!as.try_store8(dest + i, value)) return;  // latches the exact write fault
      ++i;
      continue;
    }
    const std::uint64_t w = m.budget_units(c);
    if (w != 0) std::memset(as.mutable_span(dest + i, w), value, w);
    settle(m, w, c);
    i += c;
  }
}

// sprintf/fread/fgets core: writes n host-side bytes into simulated memory,
// one tick per byte. When `cursor` is non-null it is advanced once per
// committed byte BEFORE any fault latches or hang escapes, matching
// reference loops that consume their host source before the faulting store
// (fgets advances file.pos, gets advances stdin_pos).
inline void store_host(mem::Machine& m, Addr dest, const char* src, std::uint64_t n,
                       std::uint64_t* cursor = nullptr) {
  mem::AddressSpace& as = m.mem();
  std::uint64_t i = 0;
  while (i < n) {
    const std::uint64_t c = std::min(as.span_extent(dest + i, Perm::kWrite), n - i);
    if (c == 0) {
      m.tick();
      if (cursor != nullptr) ++*cursor;
      if (!as.try_store8(dest + i, static_cast<std::uint8_t>(src[i]))) return;  // the write fault
      ++i;
      continue;
    }
    const std::uint64_t w = m.budget_units(c);
    if (w != 0) std::memcpy(as.mutable_span(dest + i, w), src + i, w);
    if (cursor != nullptr) *cursor += w;
    settle(m, w, c);
    i += c;
  }
}

// strcpy core: copies bytes through the terminator inclusive, one tick per
// byte. Returns the number of bytes copied minus the NUL (the string
// length). Overlap semantics match copy_forward.
inline std::uint64_t copy_cstr(mem::Machine& m, Addr dest, Addr src) {
  mem::AddressSpace& as = m.mem();
  const std::uint64_t gap = dest > src ? dest - src : 0;
  std::uint64_t i = 0;
  while (true) {
    std::uint64_t c = std::min(as.span_extent(src + i, Perm::kRead),
                               as.span_extent(dest + i, Perm::kWrite));
    if (gap != 0) c = std::min(c, gap);
    if (c == 0) {
      if (!replay_copy(m, dest + i, src + i)) return 0;  // a zero extent faults
      ++i;
      continue;
    }
    const std::byte* sp = as.span(src + i, c, Perm::kRead);
    const void* hit = std::memchr(sp, 0, c);
    const auto k = hit != nullptr
                       ? static_cast<std::uint64_t>(static_cast<const std::byte*>(hit) - sp)
                       : c;
    const std::uint64_t want = hit != nullptr ? k + 1 : c;
    const std::uint64_t w = m.budget_units(want);
    if (w != 0) std::memmove(as.mutable_span(dest + i, w), sp, w);
    settle(m, w, want);
    if (hit != nullptr) return i + k;
    i += c;
  }
}

// strncpy copy phase: copies until the terminator (inclusive) or `cap`
// bytes, whichever first; returns bytes consumed (the reference loop's final
// i). The caller zero-fills the remainder with fill().
inline std::uint64_t copy_cstr_bounded(mem::Machine& m, Addr dest, Addr src, std::uint64_t cap) {
  mem::AddressSpace& as = m.mem();
  const std::uint64_t gap = dest > src ? dest - src : 0;
  std::uint64_t i = 0;
  while (i < cap) {
    std::uint64_t c = std::min(as.span_extent(src + i, Perm::kRead),
                               as.span_extent(dest + i, Perm::kWrite));
    c = std::min(c, cap - i);
    if (gap != 0) c = std::min(c, gap);
    if (c == 0) {
      if (!replay_copy(m, dest + i, src + i)) return 0;  // a zero extent faults
      ++i;
      continue;
    }
    const std::byte* sp = as.span(src + i, c, Perm::kRead);
    const void* hit = std::memchr(sp, 0, c);
    const auto k = hit != nullptr
                       ? static_cast<std::uint64_t>(static_cast<const std::byte*>(hit) - sp)
                       : c;
    const std::uint64_t want = hit != nullptr ? k + 1 : c;
    const std::uint64_t w = m.budget_units(want);
    if (w != 0) std::memmove(as.mutable_span(dest + i, w), sp, w);
    settle(m, w, want);
    i += want;
    if (hit != nullptr) return i;
  }
  return cap;
}

// strcmp/strncmp/memcmp/strcasecmp core. Walks both streams one tick per
// compared position; a difference ends the walk with -1/1 (checked before
// the terminator, as in the reference loops), a NUL in both ends it with 0
// when stop_at_nul is set. `cap` bounds the walk (SIZE_MAX-ish for the
// unbounded variants).
inline std::int64_t compare(mem::Machine& m, Addr a, Addr b, std::uint64_t cap,
                            bool stop_at_nul, bool fold_case) {
  mem::AddressSpace& as = m.mem();
  const auto lower = [](std::uint8_t byte) {
    return byte >= 'A' && byte <= 'Z' ? static_cast<std::uint8_t>(byte + 32) : byte;
  };
  std::uint64_t i = 0;
  while (i < cap) {
    std::uint64_t c = std::min(as.span_extent(a + i, Perm::kRead),
                               as.span_extent(b + i, Perm::kRead));
    c = std::min(c, cap - i);
    if (c == 0) {
      m.tick();
      std::uint8_t byte = 0;  // one of the two streams must fault here
      if (!as.try_load8(a + i, byte) || !as.try_load8(b + i, byte)) return 0;
      ++i;
      continue;
    }
    const std::byte* pa = as.span(a + i, c, Perm::kRead);
    const std::byte* pb = as.span(b + i, c, Perm::kRead);
    // Positions this chunk examines: through a's terminator when the walk
    // stops there (b either matches it or differs at or before it), so
    // equal strings cost their length, not the region's.
    const void* nul = stop_at_nul ? std::memchr(pa, 0, c) : nullptr;
    const std::uint64_t n =
        nul != nullptr ? static_cast<std::uint64_t>(static_cast<const std::byte*>(nul) - pa) + 1
                       : c;
    // First position where the walk ends with a difference, if any.
    std::uint64_t diff_at = n;
    if (fold_case) {
      for (std::uint64_t k = 0; k < n; ++k) {
        if (lower(std::to_integer<std::uint8_t>(pa[k])) !=
            lower(std::to_integer<std::uint8_t>(pb[k]))) {
          diff_at = k;
          break;
        }
      }
    } else if (std::memcmp(pa, pb, n) != 0) {
      diff_at = static_cast<std::uint64_t>(std::mismatch(pa, pa + n, pb).first - pa);
    }
    if (diff_at == n && nul != nullptr) {
      // A shared NUL ends the walk with equality (the reference checks the
      // difference first, so a NUL in a alone is a difference above).
      settle(m, m.budget_units(n), n);
      return 0;
    }
    if (diff_at < n) {
      settle(m, m.budget_units(diff_at + 1), diff_at + 1);
      const std::uint8_t ca = fold_case ? lower(std::to_integer<std::uint8_t>(pa[diff_at]))
                                        : std::to_integer<std::uint8_t>(pa[diff_at]);
      const std::uint8_t cb = fold_case ? lower(std::to_integer<std::uint8_t>(pb[diff_at]))
                                        : std::to_integer<std::uint8_t>(pb[diff_at]);
      return ca < cb ? -1 : 1;
    }
    settle(m, m.budget_units(c), c);
    i += c;
  }
  return 0;
}

// memchr core: offset of the first `target` within `cap` bytes, or `cap`
// when absent; one tick per examined byte.
inline std::uint64_t find_byte(mem::Machine& m, Addr s, std::uint8_t target, std::uint64_t cap) {
  mem::AddressSpace& as = m.mem();
  std::uint64_t i = 0;
  while (i < cap) {
    const std::uint64_t extent = as.span_extent(s + i, Perm::kRead);
    if (extent == 0) {
      replay_load(m, s + i);
      return 0;
    }
    const std::uint64_t c = std::min(extent, cap - i);
    const std::byte* p = as.span(s + i, c, Perm::kRead);
    const void* hit = std::memchr(p, static_cast<int>(target), c);
    if (hit != nullptr) {
      const auto k = static_cast<std::uint64_t>(static_cast<const std::byte*>(hit) - p);
      settle(m, m.budget_units(k + 1), k + 1);
      return i + k;
    }
    settle(m, m.budget_units(c), c);
    i += c;
  }
  return cap;
}

}  // namespace healers::simlib::bulk
