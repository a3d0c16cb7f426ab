// String family of the simulated C library.
//
// Every function reproduces the fragile pre-hardening semantics: pointers
// are chased without NULL checks, destinations are written without bounds,
// and scans run until a terminator or a fault. Each processed byte costs one
// machine tick so that unterminated scans over huge mappings surface as
// hangs (the driver-timeout outcome).
#include <cstring>

#include "simlib/bulk.hpp"
#include "simlib/cerrno.hpp"
#include "simlib/funcs.hpp"
#include "simlib/libstate.hpp"

namespace healers::simlib {

namespace {

using detail::fault_return;
using detail::make_symbol;
using mem::Addr;
using mem::AddressSpace;

// strlen core: scan until NUL, ticking per byte (bulked, oracle-identical).
std::uint64_t scan_len(CallContext& ctx, Addr s) {
  return bulk::scan_len(ctx.machine, s);
}

// Whether `byte` is in the NUL-terminated set at `set`, ticking once per set
// byte examined. False with the fault latched when the set faults.
bool in_set(CallContext& ctx, Addr set, std::uint8_t byte) {
  AddressSpace& as = ctx.machine.mem();
  for (std::uint64_t j = 0;; ++j) {
    std::uint8_t member = 0;
    ctx.machine.tick();
    if (!as.try_load8(set + j, member) || member == 0) return false;
    if (member == byte) return true;
  }
}

SimValue fn_strlen(CallContext& ctx) {
  return SimValue::integer(static_cast<std::int64_t>(scan_len(ctx, ctx.arg_ptr(0))));
}

SimValue fn_strcpy(CallContext& ctx) {
  const Addr dest = ctx.arg_ptr(0);
  bulk::copy_cstr(ctx.machine, dest, ctx.arg_ptr(1));
  return SimValue::ptr(dest);
}

SimValue fn_strncpy(CallContext& ctx) {
  const Addr dest = ctx.arg_ptr(0);
  const std::uint64_t n = ctx.arg_size(2);
  // Copy through the terminator, then the spec-faithful zero fill to n.
  const std::uint64_t copied = bulk::copy_cstr_bounded(ctx.machine, dest, ctx.arg_ptr(1), n);
  if (ctx.machine.faulted()) return fault_return();
  bulk::fill(ctx.machine, dest + copied, 0, n - copied);
  return SimValue::ptr(dest);
}

SimValue fn_strcat(CallContext& ctx) {
  const Addr dest = ctx.arg_ptr(0);
  const std::uint64_t base = scan_len(ctx, dest);
  if (ctx.machine.faulted()) return fault_return();
  bulk::copy_cstr(ctx.machine, dest + base, ctx.arg_ptr(1));
  return SimValue::ptr(dest);
}

SimValue fn_strncat(CallContext& ctx) {
  AddressSpace& as = ctx.machine.mem();
  const Addr dest = ctx.arg_ptr(0);
  const Addr src = ctx.arg_ptr(1);
  const std::uint64_t n = ctx.arg_size(2);
  const std::uint64_t base = scan_len(ctx, dest);
  if (ctx.machine.faulted()) return fault_return();
  std::uint64_t i = 0;
  for (; i < n; ++i) {
    ctx.machine.tick();
    std::uint8_t byte = 0;
    if (!as.try_load8(src + i, byte)) return fault_return();
    if (byte == 0) break;
    if (!as.try_store8(dest + base + i, byte)) return fault_return();
  }
  if (!as.try_store8(dest + base + i, 0)) return fault_return();
  return SimValue::ptr(dest);
}

SimValue fn_strcmp(CallContext& ctx) {
  return SimValue::integer(bulk::compare(ctx.machine, ctx.arg_ptr(0), ctx.arg_ptr(1),
                                         ~std::uint64_t{0}, /*stop_at_nul=*/true,
                                         /*fold_case=*/false));
}

SimValue fn_strncmp(CallContext& ctx) {
  return SimValue::integer(bulk::compare(ctx.machine, ctx.arg_ptr(0), ctx.arg_ptr(1),
                                         ctx.arg_size(2), /*stop_at_nul=*/true,
                                         /*fold_case=*/false));
}

SimValue fn_strchr(CallContext& ctx) {
  AddressSpace& as = ctx.machine.mem();
  const Addr s = ctx.arg_ptr(0);
  const auto target = static_cast<std::uint8_t>(ctx.arg_int(1));
  std::uint64_t i = 0;
  while (true) {
    const std::uint64_t extent = as.span_extent(s + i, mem::Perm::kRead);
    if (extent == 0) {
      bulk::replay_load(ctx.machine, s + i);
      return fault_return();
    }
    const std::byte* p = as.span(s + i, extent, mem::Perm::kRead);
    const std::uint64_t k = bulk::find_nul_or(p, extent, target);
    if (k < extent) {
      // The reference checks the target before the terminator, so a NUL
      // target matches the terminator itself.
      const bool found = std::to_integer<std::uint8_t>(p[k]) == target;
      bulk::settle(ctx.machine, ctx.machine.budget_units(k + 1), k + 1);
      return found ? SimValue::ptr(s + i + k) : SimValue::null();
    }
    bulk::settle(ctx.machine, ctx.machine.budget_units(extent), extent);
    i += extent;
  }
}

SimValue fn_strrchr(CallContext& ctx) {
  AddressSpace& as = ctx.machine.mem();
  const Addr s = ctx.arg_ptr(0);
  const auto target = static_cast<std::uint8_t>(ctx.arg_int(1));
  Addr found = 0;
  bool any = false;
  std::uint64_t i = 0;
  while (true) {
    const std::uint64_t extent = as.span_extent(s + i, mem::Perm::kRead);
    if (extent == 0) {
      bulk::replay_load(ctx.machine, s + i);
      return fault_return();
    }
    const std::byte* p = as.span(s + i, extent, mem::Perm::kRead);
    const void* h0 = std::memchr(p, 0, extent);
    // The terminator byte is examined too (a NUL target matches it).
    const std::uint64_t limit =
        h0 != nullptr
            ? static_cast<std::uint64_t>(static_cast<const std::byte*>(h0) - p) + 1
            : extent;
    for (std::uint64_t k = limit; k > 0; --k) {
      if (std::to_integer<std::uint8_t>(p[k - 1]) == target) {
        found = s + i + k - 1;
        any = true;
        break;
      }
    }
    bulk::settle(ctx.machine, ctx.machine.budget_units(limit), limit);
    if (h0 != nullptr) break;
    i += extent;
  }
  return any ? SimValue::ptr(found) : SimValue::null();
}

SimValue fn_strstr(CallContext& ctx) {
  AddressSpace& as = ctx.machine.mem();
  const Addr hay = ctx.arg_ptr(0);
  const Addr needle = ctx.arg_ptr(1);
  std::uint8_t first = 0;
  ctx.machine.tick();
  if (!as.try_load8(needle, first)) return fault_return();
  if (first == 0) return SimValue::ptr(hay);
  for (std::uint64_t i = 0;; ++i) {
    std::uint8_t hc = 0;
    ctx.machine.tick();
    if (!as.try_load8(hay + i, hc)) return fault_return();
    if (hc == 0) return SimValue::null();
    std::uint64_t j = 0;
    while (true) {
      std::uint8_t nc = 0;
      std::uint8_t candidate = 0;
      ctx.machine.tick();
      if (!as.try_load8(needle + j, nc)) return fault_return();
      if (nc == 0) return SimValue::ptr(hay + i);
      if (!as.try_load8(hay + i + j, candidate)) return fault_return();
      if (candidate != nc) break;
      ++j;
    }
  }
}

// Shared scanner for strspn/strcspn: returns the length of the initial
// segment whose bytes are (in=true) / are not (in=false) in `accept`.
SimValue span_impl(CallContext& ctx, bool in) {
  AddressSpace& as = ctx.machine.mem();
  const Addr s = ctx.arg_ptr(0);
  const Addr accept = ctx.arg_ptr(1);
  std::uint64_t i = 0;
  for (;; ++i) {
    std::uint8_t byte = 0;
    ctx.machine.tick();
    if (!as.try_load8(s + i, byte)) return fault_return();
    if (byte == 0) break;
    const bool member = in_set(ctx, accept, byte);
    if (ctx.machine.faulted()) return fault_return();
    if (member != in) break;
  }
  return SimValue::integer(static_cast<std::int64_t>(i));
}

SimValue fn_strpbrk(CallContext& ctx) {
  AddressSpace& as = ctx.machine.mem();
  const Addr s = ctx.arg_ptr(0);
  const Addr accept = ctx.arg_ptr(1);
  for (std::uint64_t i = 0;; ++i) {
    std::uint8_t byte = 0;
    ctx.machine.tick();
    if (!as.try_load8(s + i, byte)) return fault_return();
    if (byte == 0) return SimValue::null();
    const bool member = in_set(ctx, accept, byte);
    if (ctx.machine.faulted()) return fault_return();
    if (member) return SimValue::ptr(s + i);
  }
}

SimValue fn_strdup(CallContext& ctx) {
  const Addr s = ctx.arg_ptr(0);
  const std::uint64_t len = scan_len(ctx, s);
  if (ctx.machine.faulted()) return fault_return();
  const Addr copy = ctx.machine.heap().malloc(len + 1);
  if (copy == 0) {
    ctx.machine.set_err(kENOMEM);
    return SimValue::null();
  }
  bulk::copy_forward(ctx.machine, copy, s, len + 1);
  return SimValue::ptr(copy);
}

SimValue fn_strtok(CallContext& ctx) {
  AddressSpace& as = ctx.machine.mem();
  Addr s = ctx.arg_ptr(0);
  const Addr delim = ctx.arg_ptr(1);
  if (s == 0) {
    // Continue from the hidden cursor; classic crash when strtok(NULL, d)
    // is the first-ever call (cursor 0 -> load at 0 faults).
    s = ctx.state.strtok_cursor;
  }
  // Skip leading delimiters.
  std::uint64_t i = 0;
  while (true) {
    std::uint8_t byte = 0;
    ctx.machine.tick();
    if (!as.try_load8(s + i, byte)) return fault_return();
    if (byte == 0) {
      ctx.state.strtok_cursor = s + i;
      return SimValue::null();
    }
    const bool is_delim = in_set(ctx, delim, byte);
    if (ctx.machine.faulted()) return fault_return();
    if (!is_delim) break;
    ++i;
  }
  const Addr token = s + i;
  while (true) {
    std::uint8_t byte = 0;
    ctx.machine.tick();
    if (!as.try_load8(s + i, byte)) return fault_return();
    if (byte == 0) {
      ctx.state.strtok_cursor = s + i;
      return SimValue::ptr(token);
    }
    const bool is_delim = in_set(ctx, delim, byte);
    if (ctx.machine.faulted()) return fault_return();
    if (is_delim) {
      if (!as.try_store8(s + i, 0)) return fault_return();
      ctx.state.strtok_cursor = s + i + 1;
      return SimValue::ptr(token);
    }
    ++i;
  }
}

SimValue fn_strerror(CallContext& ctx) {
  const int err = static_cast<int>(ctx.arg_int(0));
  // glibc-style: returns a pointer to a static buffer, overwritten per call.
  if (ctx.state.strerror_buf == 0) {
    mem::Region& region = ctx.machine.mem().map(128, mem::Perm::kReadWrite,
                                                mem::RegionKind::kData, "strerror_buf");
    ctx.state.strerror_buf = region.base;
  }
  const std::string text = errno_describe(err);
  ctx.machine.tick(text.size());
  ctx.machine.mem().write_cstring(ctx.state.strerror_buf, text.substr(0, 127));
  return SimValue::ptr(ctx.state.strerror_buf);
}

SimValue fn_strcoll(CallContext& ctx) {
  // C locale: strcoll == strcmp.
  return fn_strcmp(ctx);
}

SimValue fn_strnlen(CallContext& ctx) {
  return SimValue::integer(static_cast<std::int64_t>(
      bulk::scan_len_bounded(ctx.machine, ctx.arg_ptr(0), ctx.arg_size(1))));
}

SimValue fn_strcasecmp(CallContext& ctx) {
  return SimValue::integer(bulk::compare(ctx.machine, ctx.arg_ptr(0), ctx.arg_ptr(1),
                                         ~std::uint64_t{0}, /*stop_at_nul=*/true,
                                         /*fold_case=*/true));
}

SimValue fn_strncasecmp(CallContext& ctx) {
  return SimValue::integer(bulk::compare(ctx.machine, ctx.arg_ptr(0), ctx.arg_ptr(1),
                                         ctx.arg_size(2), /*stop_at_nul=*/true,
                                         /*fold_case=*/true));
}

// The reentrant tokenizer: cursor kept in *saveptr instead of hidden state.
SimValue fn_strtok_r(CallContext& ctx) {
  AddressSpace& as = ctx.machine.mem();
  Addr s = ctx.arg_ptr(0);
  const Addr delim = ctx.arg_ptr(1);
  const Addr saveptr = ctx.arg_ptr(2);
  if (s == 0) {
    // Continuation: read the cursor (crashes on garbage).
    if (!as.try_load64(saveptr, s)) return fault_return();
  }
  std::uint64_t i = 0;
  while (true) {
    std::uint8_t byte = 0;
    ctx.machine.tick();
    if (!as.try_load8(s + i, byte)) return fault_return();
    if (byte == 0) {
      if (!as.try_store64(saveptr, s + i)) return fault_return();
      return SimValue::null();
    }
    const bool is_delim = in_set(ctx, delim, byte);
    if (ctx.machine.faulted()) return fault_return();
    if (!is_delim) break;
    ++i;
  }
  const Addr token = s + i;
  while (true) {
    std::uint8_t byte = 0;
    ctx.machine.tick();
    if (!as.try_load8(s + i, byte)) return fault_return();
    if (byte == 0) {
      if (!as.try_store64(saveptr, s + i)) return fault_return();
      return SimValue::ptr(token);
    }
    const bool is_delim = in_set(ctx, delim, byte);
    if (ctx.machine.faulted()) return fault_return();
    if (is_delim) {
      if (!as.try_store8(s + i, 0) || !as.try_store64(saveptr, s + i + 1)) {
        return fault_return();
      }
      return SimValue::ptr(token);
    }
    ++i;
  }
}

}  // namespace

void register_string_funcs(SharedLibrary& lib) {
  lib.add(make_symbol("strlen", "compute the length of a string",
                      "size_t strlen(const char *s);",
                      {"NONNULL 1", "ARG 1 CSTRING"}, fn_strlen));
  lib.add(make_symbol("strcpy", "copy a string",
                      "char *strcpy(char *dest, const char *src);",
                      {"NONNULL 1 2", "ARG 2 CSTRING",
                       "ARG 1 BUF WRITE SIZE cstrlen(2)+1", "CALLS strlen memcpy"},
                      fn_strcpy));
  lib.add(make_symbol("strncpy", "copy a bounded string",
                      "char *strncpy(char *dest, const char *src, size_t n);",
                      {"NONNULL 1 2", "ARG 2 CSTRING", "ARG 1 BUF WRITE SIZE arg(3)",
                       "CALLS strnlen"},
                      fn_strncpy));
  lib.add(make_symbol("strcat", "concatenate two strings",
                      "char *strcat(char *dest, const char *src);",
                      {"NONNULL 1 2", "ARG 1 CSTRING", "ARG 2 CSTRING",
                       "ARG 1 BUF WRITE SIZE cstrlen(1)+cstrlen(2)+1",
                       "CALLS strlen memcpy"},
                      fn_strcat));
  lib.add(make_symbol("strncat", "concatenate a bounded string",
                      "char *strncat(char *dest, const char *src, size_t n);",
                      {"NONNULL 1 2", "ARG 1 CSTRING", "ARG 2 CSTRING",
                       "ARG 1 BUF WRITE SIZE cstrlen(1)+min(arg(3),cstrlen(2))+1",
                       "CALLS strlen strnlen"},
                      fn_strncat));
  lib.add(make_symbol("strcmp", "compare two strings",
                      "int strcmp(const char *s1, const char *s2);",
                      {"NONNULL 1 2", "ARG 1 CSTRING", "ARG 2 CSTRING"}, fn_strcmp));
  lib.add(make_symbol("strncmp", "compare two bounded strings",
                      "int strncmp(const char *s1, const char *s2, size_t n);",
                      {"NONNULL 1 2", "ARG 1 CSTRING", "ARG 2 CSTRING"}, fn_strncmp));
  lib.add(make_symbol("strchr", "locate a character in a string",
                      "char *strchr(const char *s, int c);",
                      {"NONNULL 1", "ARG 1 CSTRING"}, fn_strchr));
  lib.add(make_symbol("strrchr", "locate a character in a string, from the end",
                      "char *strrchr(const char *s, int c);",
                      {"NONNULL 1", "ARG 1 CSTRING"}, fn_strrchr));
  lib.add(make_symbol("strstr", "locate a substring",
                      "char *strstr(const char *haystack, const char *needle);",
                      {"NONNULL 1 2", "ARG 1 CSTRING", "ARG 2 CSTRING",
                       "CALLS strlen strncmp"},
                      fn_strstr));
  lib.add(make_symbol("strspn", "span of accepted characters",
                      "size_t strspn(const char *s, const char *accept);",
                      {"NONNULL 1 2", "ARG 1 CSTRING", "ARG 2 CSTRING"},
                      [](CallContext& ctx) { return span_impl(ctx, true); }));
  lib.add(make_symbol("strcspn", "span of rejected characters",
                      "size_t strcspn(const char *s, const char *reject);",
                      {"NONNULL 1 2", "ARG 1 CSTRING", "ARG 2 CSTRING"},
                      [](CallContext& ctx) { return span_impl(ctx, false); }));
  lib.add(make_symbol("strpbrk", "locate any of a set of characters",
                      "char *strpbrk(const char *s, const char *accept);",
                      {"NONNULL 1 2", "ARG 1 CSTRING", "ARG 2 CSTRING"}, fn_strpbrk));
  lib.add(make_symbol("strdup", "duplicate a string on the heap",
                      "char *strdup(const char *s);",
                      {"NONNULL 1", "ARG 1 CSTRING", "ERRNO ENOMEM",
                       "CALLS strlen malloc memcpy"},
                      fn_strdup));
  lib.add(make_symbol("strtok", "tokenize a string (stateful)",
                      "char *strtok(char *str, const char *delim);",
                      {"NONNULL 2", "ARG 2 CSTRING", "ARG 1 CSTRING", "ALLOWNULL 1",
                       "ARG 1 CURSOR", "STATEFUL", "CALLS strspn strcspn"},
                      fn_strtok));
  lib.add(make_symbol("strerror", "describe an errno value",
                      "char *strerror(int errnum);", {"STATEFUL"}, fn_strerror));
  lib.add(make_symbol("strcoll", "compare strings in the current locale",
                      "int strcoll(const char *s1, const char *s2);",
                      {"NONNULL 1 2", "ARG 1 CSTRING", "ARG 2 CSTRING", "CALLS strcmp"},
                      fn_strcoll));
  lib.add(make_symbol("strnlen", "compute a bounded string length",
                      "size_t strnlen(const char *s, size_t maxlen);",
                      {"NONNULL 1", "ARG 1 BUF READ SIZE min(arg(2),cstrlen(1)+1)"},
                      fn_strnlen));
  lib.add(make_symbol("strcasecmp", "compare two strings ignoring case",
                      "int strcasecmp(const char *s1, const char *s2);",
                      {"NONNULL 1 2", "ARG 1 CSTRING", "ARG 2 CSTRING"}, fn_strcasecmp));
  lib.add(make_symbol("strncasecmp", "compare two bounded strings ignoring case",
                      "int strncasecmp(const char *s1, const char *s2, size_t n);",
                      {"NONNULL 1 2", "ARG 1 CSTRING", "ARG 2 CSTRING"}, fn_strncasecmp));
  lib.add(make_symbol("strtok_r", "tokenize a string (reentrant)",
                      "char *strtok_r(char *str, const char *delim, char **saveptr);",
                      {"NONNULL 2 3", "ARG 2 CSTRING", "ALLOWNULL 1", "ARG 1 CSTRING",
                       "ARG 1 SAVEPTR 3", "ARG 3 BUF WRITE SIZE 8",
                       "CALLS strspn strcspn"},
                      fn_strtok_r));
}

}  // namespace healers::simlib
