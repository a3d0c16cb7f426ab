// Internal registration interface and shared helpers for the simulated C
// library's function families. Each funcs_*.cpp implements one family and
// registers its symbols (implementation + declaration + man page) into a
// SharedLibrary; builders.cpp assembles the stock libraries from them.
//
// Fidelity rule for every function here: implement the *historical, fragile*
// semantics — crash on NULL, overrun short buffers silently, wrap on
// overflow — because those behaviours are what the HEALERS fault injector
// must rediscover and what the generated wrappers must contain.
//
// Fault rule: a crash is an access through a try_ accessor (or a helper in
// bulk.hpp) that latches the fault in the machine. The function then
// returns fault_return() at once — no further tick, store, errno write or
// LibState change — and the linker reaps or rethrows the latch.
#pragma once

#include <initializer_list>
#include <string>

#include "simlib/library.hpp"
#include "simlib/value.hpp"

namespace healers::simlib {

void register_string_funcs(SharedLibrary& lib);
void register_memory_funcs(SharedLibrary& lib);
void register_conv_funcs(SharedLibrary& lib);
void register_ctype_funcs(SharedLibrary& lib);
void register_stdio_funcs(SharedLibrary& lib);
void register_misc_funcs(SharedLibrary& lib);
void register_sort_funcs(SharedLibrary& lib);
void register_math_funcs(SharedLibrary& lib);

namespace detail {

// What a function returns when it stops at a latched fault. Nobody reads
// it: the dispatcher takes the fault from the machine instead.
[[nodiscard]] inline SimValue fault_return() { return SimValue::integer(0); }

// Builds a Symbol with a canonical man page:
//   NAME / <name> - <summary>
//   SYNOPSIS / <declaration>
//   NOTES / one annotation per line (the machine-readable semantic hints
//           that stand in for the paper's manual-editing step; grammar in
//           src/parser/manpage.hpp).
[[nodiscard]] Symbol make_symbol(std::string name, std::string summary, std::string declaration,
                                 std::initializer_list<const char*> notes, CFunction fn);

// Lazily builds the 384-byte classification table for ctype functions and
// returns its simulated base. The table covers indexes [-128, 255] at
// offset +128 — so, exactly like a table-driven libc, a wild `int` argument
// drives the lookup out of the region and faults.
[[nodiscard]] mem::Addr ctype_table(CallContext& ctx);

// ctype table bit flags.
inline constexpr std::uint8_t kCtUpper = 0x01;
inline constexpr std::uint8_t kCtLower = 0x02;
inline constexpr std::uint8_t kCtDigit = 0x04;
inline constexpr std::uint8_t kCtSpace = 0x08;
inline constexpr std::uint8_t kCtPunct = 0x10;
inline constexpr std::uint8_t kCtXdigit = 0x20;
inline constexpr std::uint8_t kCtCntrl = 0x40;

// printf-engine shared by sprintf/snprintf/fprintf: formats `fmt` (a
// simulated address) with ctx.args starting at `first_vararg`. Appends to
// `out`. Faithfully fragile: %s chases the pointer without checks. Returns
// early with the fault latched when an access faults. Returns false, with
// errno set to EOVERFLOW, when a conversion's width exceeds INT_MAX; the
// caller then returns -1 without writing anything.
[[nodiscard]] bool format_into(CallContext& ctx, mem::Addr fmt, std::size_t first_vararg,
                               std::string& out);

}  // namespace detail

}  // namespace healers::simlib
