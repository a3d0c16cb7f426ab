#include <cctype>
#include <cstring>

#include "simlib/bulk.hpp"
#include "simlib/cerrno.hpp"
#include "simlib/funcs.hpp"
#include "simlib/libstate.hpp"
#include "simlib/printf_spec.hpp"

namespace healers::simlib::detail {

Symbol make_symbol(std::string name, std::string summary, std::string declaration,
                   std::initializer_list<const char*> notes, CFunction fn) {
  std::string manpage;
  manpage += "NAME\n  " + name + " - " + summary + "\n";
  manpage += "SYNOPSIS\n  " + declaration + "\n";
  manpage += "NOTES\n";
  for (const char* note : notes) {
    manpage += "  ";
    manpage += note;
    manpage += '\n';
  }
  Symbol symbol;
  symbol.name = std::move(name);
  symbol.fn = std::move(fn);
  symbol.declaration = std::move(declaration);
  symbol.manpage = std::move(manpage);
  return symbol;
}

mem::Addr ctype_table(CallContext& ctx) {
  if (ctx.state.ctype_table != 0) return ctx.state.ctype_table + 128;
  // 384 entries covering [-128, 255]; the returned base is biased so that
  // table[c] is a direct (and for wild c, faulting) lookup.
  mem::Region& region =
      ctx.machine.mem().map(384, mem::Perm::kRead, mem::RegionKind::kRodata, "ctype_table");
  std::uint8_t table[384];
  for (int i = 0; i < 384; ++i) {
    const int c = i - 128;
    std::uint8_t bits = 0;
    if (c >= 0 && c <= 255) {
      if (c >= 'A' && c <= 'Z') bits |= kCtUpper;
      if (c >= 'a' && c <= 'z') bits |= kCtLower;
      if (c >= '0' && c <= '9') bits |= kCtDigit;
      if (c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r') {
        bits |= kCtSpace;
      }
      if (c > 32 && c < 127 && ((bits & (kCtUpper | kCtLower | kCtDigit)) == 0)) bits |= kCtPunct;
      if ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')) {
        bits |= kCtXdigit;
      }
      if (c < 32 || c == 127) bits |= kCtCntrl;
    }
    table[static_cast<std::size_t>(i)] = bits;
  }
  // The region is read-only; the loader backdoor populates it (and keeps the
  // COW write barrier honest, so the table survives snapshot/restore).
  ctx.machine.mem().loader_fill(region.base, table, sizeof table);
  ctx.state.ctype_table = region.base;
  return region.base + 128;
}

bool format_into(CallContext& ctx, mem::Addr fmt, std::size_t first_vararg, std::string& out) {
  mem::AddressSpace& as = ctx.machine.mem();
  std::size_t arg = first_vararg;
  for (mem::Addr p = fmt;; ++p) {
    // Literal run: copy bytes up to the next '%' or terminator in per-region
    // chunks, one tick per byte including the byte that ends the run. `out`
    // is host-local and discarded when a fault latches or a hang escapes, so
    // partial appends are unobservable.
    bool done = false;
    while (true) {
      const std::uint64_t extent = as.span_extent(p, mem::Perm::kRead);
      if (extent == 0) {
        bulk::replay_load(ctx.machine, p);
        return true;
      }
      const std::byte* sp = as.span(p, extent, mem::Perm::kRead);
      const std::uint64_t k = bulk::find_nul_or(sp, extent, '%');
      const std::uint64_t want = k < extent ? k + 1 : extent;
      out.append(reinterpret_cast<const char*>(sp), k);
      bulk::settle(ctx.machine, ctx.machine.budget_units(want), want);
      if (k < extent) {
        done = sp[k] == std::byte{0};
        p += k;  // leave p on the '%' for the parse below
        break;
      }
      p += extent;
    }
    if (done) return true;
    const auto read = [&](mem::Addr at, std::uint8_t& byte, bool ticked) {
      if (ticked) ctx.machine.tick();
      return as.try_load8(at, byte);
    };
    const std::optional<ConvSpec> parsed = parse_conv_spec(p, read);
    if (!parsed) return true;
    const ConvSpec& spec = *parsed;
    if (spec.width_overflow) {
      ctx.machine.set_err(kEOVERFLOW);
      return false;
    }
    p = spec.end;
    std::string piece;
    switch (spec.conv) {
      case '%':
        piece = "%";
        break;
      case 'd':
      case 'i':
        piece = std::to_string(ctx.args.at(arg++).as_int());
        break;
      case 'u':
        piece = std::to_string(ctx.args.at(arg++).as_uint());
        break;
      case 'x': {
        std::uint64_t v = ctx.args.at(arg++).as_uint();
        if (v == 0) {
          piece = "0";
        } else {
          while (v != 0) {
            piece.insert(piece.begin(), "0123456789abcdef"[v & 0xF]);
            v >>= 4;
          }
        }
        break;
      }
      case 'c':
        piece = std::string(1, static_cast<char>(ctx.args.at(arg++).as_int()));
        break;
      case 'f':
        piece = std::to_string(ctx.args.at(arg++).as_double());
        break;
      case 's': {
        // Faithfully fragile: chase the pointer with no NULL check. Each
        // character costs a tick; an unterminated argument ends in a fault.
        const mem::Addr s = ctx.args.at(arg++).as_ptr();
        mem::Addr q = s;
        while (true) {
          const std::uint64_t extent = as.span_extent(q, mem::Perm::kRead);
          if (extent == 0) {
            bulk::replay_load(ctx.machine, q);
            return true;
          }
          const std::byte* sp = as.span(q, extent, mem::Perm::kRead);
          const void* hit = std::memchr(sp, 0, extent);
          const auto k =
              hit != nullptr
                  ? static_cast<std::uint64_t>(static_cast<const std::byte*>(hit) - sp)
                  : extent;
          piece.append(reinterpret_cast<const char*>(sp), k);
          bulk::settle(ctx.machine, ctx.machine.budget_units(hit != nullptr ? k + 1 : extent),
                       hit != nullptr ? k + 1 : extent);
          if (hit != nullptr) break;
          q += extent;
        }
        break;
      }
      default:
        // Unknown conversion: emit verbatim, as glibc does.
        piece = std::string("%") + spec.conv;
    }
    if (spec.width > static_cast<int>(piece.size())) {
      // Zero padding goes after a number's sign: "%05d" of -42 is "-0042".
      const bool numeric = spec.conv == 'd' || spec.conv == 'i' || spec.conv == 'f';
      const std::size_t at = spec.zero_pad && numeric && piece.front() == '-' ? 1 : 0;
      piece.insert(at, static_cast<std::size_t>(spec.width) - piece.size(),
                   spec.zero_pad ? '0' : ' ');
    }
    out += piece;
  }
}

}  // namespace healers::simlib::detail
