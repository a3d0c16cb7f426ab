// The printf conversion-spec grammar, "%[0][width][l...]conv" — the subset
// HEALERS workloads use. One parser serves the library's formatter
// (detail::format_into), which ticks and latches faults as it reads, and
// the robustness wrapper's formatted-length pre-pass, which does neither.
#pragma once

#include <climits>
#include <cstdint>
#include <optional>

#include "memmodel/addr_space.hpp"

namespace healers::simlib {

struct ConvSpec {
  bool zero_pad = false;
  int width = 0;
  // The width's digits exceed INT_MAX: C's printf fails with EOVERFLOW.
  bool width_overflow = false;
  char conv = '\0';
  mem::Addr end = 0;  // address of the conversion character
};

// Parses the spec that follows the '%' at `percent`. `read(addr, byte,
// ticked)` loads one byte and returns false to abandon the parse; `ticked`
// marks the reads the library's formatter charges a step for (every read
// but the one after a '0' flag). nullopt when a read failed.
template <typename Read>
[[nodiscard]] std::optional<ConvSpec> parse_conv_spec(mem::Addr percent, Read&& read) {
  ConvSpec spec;
  mem::Addr p = percent + 1;
  std::uint8_t byte = 0;
  if (!read(p, byte, true)) return std::nullopt;
  if (byte == '0') {
    spec.zero_pad = true;
    if (!read(++p, byte, false)) return std::nullopt;
  }
  while (byte >= '0' && byte <= '9') {
    const int digit = byte - '0';
    if (!spec.width_overflow && spec.width <= (INT_MAX - digit) / 10) {
      spec.width = spec.width * 10 + digit;
    } else {
      spec.width_overflow = true;
    }
    if (!read(++p, byte, true)) return std::nullopt;
  }
  while (byte == 'l') {  // %ld / %lld width modifiers are a no-op at 64 bit
    if (!read(++p, byte, true)) return std::nullopt;
  }
  spec.conv = static_cast<char>(byte);
  spec.end = p;
  return spec;
}

}  // namespace healers::simlib
