// Conversion family: ato*/strto* and integer helpers. The ato* functions
// keep their specified fragility (no error reporting, UB on overflow — here:
// silent wrap, crash on NULL); the strto* functions are robust-by-spec in
// everything except the string pointer itself, which mirrors real libcs and
// gives the fault injector a contrast class.
#include <algorithm>
#include <cmath>

#include "simlib/cerrno.hpp"
#include "simlib/funcs.hpp"
#include "simlib/libstate.hpp"

namespace healers::simlib {

namespace {

using detail::fault_return;
using detail::make_symbol;
using mem::Addr;
using mem::AddressSpace;

bool is_space_byte(std::uint8_t byte) {
  return byte == ' ' || byte == '\t' || byte == '\n' || byte == '\v' || byte == '\f' ||
         byte == '\r';
}

int digit_value(std::uint8_t byte, int base) {
  int value = -1;
  if (byte >= '0' && byte <= '9') value = byte - '0';
  else if (byte >= 'a' && byte <= 'z') value = byte - 'a' + 10;
  else if (byte >= 'A' && byte <= 'Z') value = byte - 'A' + 10;
  return (value >= 0 && value < base) ? value : -1;
}

// Core integer scan shared by atoi/atol/strtol/strtoul. Returns the value
// (wrapped, no range handling) and reports the end position, whether any
// digit was consumed and whether the magnitude overflowed 64 bits; range
// handling is layered on by strto*. Returns early with the fault latched
// when a load faults.
struct ScanResult {
  std::uint64_t magnitude = 0;
  bool negative = false;
  bool any_digit = false;
  bool overflowed = false;
  Addr end = 0;
};

ScanResult scan_int(CallContext& ctx, Addr s, int base) {
  AddressSpace& as = ctx.machine.mem();
  ScanResult r;
  Addr p = s;
  std::uint8_t byte = 0;
  while (true) {
    ctx.machine.tick();
    if (!as.try_load8(p, byte)) return r;
    if (!is_space_byte(byte)) break;
    ++p;
  }
  std::uint8_t sign = 0;
  if (!as.try_load8(p, sign)) return r;
  if (sign == '-' || sign == '+') {
    r.negative = sign == '-';
    ++p;
  }
  if (base == 0 || base == 16) {
    std::uint8_t lead = 0;
    if (!as.try_load8(p, lead)) return r;
    if (lead == '0') {
      std::uint8_t next = 0;
      if (!as.try_load8(p + 1, next)) return r;
      if (next == 'x' || next == 'X') {
        // "0x" prefix counts only when a hex digit follows.
        std::uint8_t after = 0;
        if (!as.try_load8(p + 2, after)) return r;
        if (digit_value(after, 16) >= 0) {
          p += 2;
          base = 16;
        } else if (base == 0) {
          base = 8;
        }
      } else if (base == 0) {
        base = 8;
      }
    }
  }
  if (base == 0) base = 10;
  while (true) {
    ctx.machine.tick();
    if (!as.try_load8(p, byte)) return r;
    const int digit = digit_value(byte, base);
    if (digit < 0) break;
    // The magnitude wraps (atoi's silent wrap); a wrap in either step is an
    // overflow.
    std::uint64_t product = 0;
    const bool mul_wrapped =
        __builtin_mul_overflow(r.magnitude, static_cast<std::uint64_t>(base), &product);
    const bool add_wrapped =
        __builtin_add_overflow(product, static_cast<std::uint64_t>(digit), &r.magnitude);
    r.overflowed = r.overflowed || mul_wrapped || add_wrapped;
    r.any_digit = true;
    ++p;
  }
  r.end = p;
  return r;
}

SimValue fn_atoi(CallContext& ctx) {
  const ScanResult r = scan_int(ctx, ctx.arg_ptr(0), 10);
  const auto value = static_cast<std::int64_t>(r.negative ? 0 - r.magnitude : r.magnitude);
  return SimValue::integer(static_cast<std::int32_t>(value));  // int width wrap
}

SimValue fn_atol(CallContext& ctx) {
  const ScanResult r = scan_int(ctx, ctx.arg_ptr(0), 10);
  return SimValue::integer(static_cast<std::int64_t>(r.negative ? 0 - r.magnitude : r.magnitude));
}

SimValue fn_strtol(CallContext& ctx) {
  const Addr s = ctx.arg_ptr(0);
  const Addr endptr = ctx.arg_ptr(1);
  const int base = static_cast<int>(ctx.arg_int(2));
  if (base != 0 && (base < 2 || base > 36)) {
    ctx.machine.set_err(kEINVAL);
    if (endptr != 0 && !ctx.machine.mem().try_store64(endptr, s)) return fault_return();
    return SimValue::integer(0);
  }
  const ScanResult r = scan_int(ctx, s, base);
  if (ctx.machine.faulted()) return fault_return();
  if (endptr != 0 && !ctx.machine.mem().try_store64(endptr, r.any_digit ? r.end : s)) {
    return fault_return();
  }
  constexpr std::uint64_t kMaxPos = 0x7fffffffffffffffULL;
  if (r.overflowed || r.magnitude > (r.negative ? kMaxPos + 1 : kMaxPos)) {
    ctx.machine.set_err(kERANGE);
    return SimValue::integer(r.negative ? static_cast<std::int64_t>(~kMaxPos)
                                        : static_cast<std::int64_t>(kMaxPos));
  }
  return SimValue::integer(static_cast<std::int64_t>(r.negative ? 0 - r.magnitude : r.magnitude));
}

SimValue fn_strtoul(CallContext& ctx) {
  const Addr s = ctx.arg_ptr(0);
  const Addr endptr = ctx.arg_ptr(1);
  const int base = static_cast<int>(ctx.arg_int(2));
  if (base != 0 && (base < 2 || base > 36)) {
    ctx.machine.set_err(kEINVAL);
    if (endptr != 0 && !ctx.machine.mem().try_store64(endptr, s)) return fault_return();
    return SimValue::integer(0);
  }
  const ScanResult r = scan_int(ctx, s, base);
  if (ctx.machine.faulted()) return fault_return();
  if (endptr != 0 && !ctx.machine.mem().try_store64(endptr, r.any_digit ? r.end : s)) {
    return fault_return();
  }
  if (r.overflowed) {
    ctx.machine.set_err(kERANGE);
    return SimValue::integer(-1);  // ULONG_MAX
  }
  const std::uint64_t value = r.negative ? 0 - r.magnitude : r.magnitude;
  return SimValue::integer(static_cast<std::int64_t>(value));
}

SimValue fn_strtod(CallContext& ctx) {
  AddressSpace& as = ctx.machine.mem();
  const Addr s = ctx.arg_ptr(0);
  const Addr endptr = ctx.arg_ptr(1);
  Addr p = s;
  std::uint8_t byte = 0;
  while (true) {
    ctx.machine.tick();
    if (!as.try_load8(p, byte)) return fault_return();
    if (!is_space_byte(byte)) break;
    ++p;
  }
  bool negative = false;
  if (!as.try_load8(p, byte)) return fault_return();
  if (byte == '-' || byte == '+') {
    negative = byte == '-';
    ++p;
  }
  double value = 0.0;
  bool any = false;
  while (true) {
    ctx.machine.tick();
    if (!as.try_load8(p, byte)) return fault_return();
    if (byte < '0' || byte > '9') break;
    value = value * 10.0 + (byte - '0');
    any = true;
    ++p;
  }
  if (!as.try_load8(p, byte)) return fault_return();
  if (byte == '.') {
    ++p;
    double scale = 0.1;
    while (true) {
      ctx.machine.tick();
      if (!as.try_load8(p, byte)) return fault_return();
      if (byte < '0' || byte > '9') break;
      value += (byte - '0') * scale;
      scale *= 0.1;
      any = true;
      ++p;
    }
  }
  if (any) {
    if (!as.try_load8(p, byte)) return fault_return();
    if (byte == 'e' || byte == 'E') {
      Addr q = p + 1;
      bool exp_neg = false;
      std::uint8_t esign = 0;
      if (!as.try_load8(q, esign)) return fault_return();
      if (esign == '-' || esign == '+') {
        exp_neg = esign == '-';
        ++q;
      }
      // Saturates: any exponent past kMaxExponent already overflows a
      // double to inf (or underflows it to 0).
      constexpr int kMaxExponent = 99999;
      int exponent = 0;
      bool exp_any = false;
      while (true) {
        ctx.machine.tick();
        if (!as.try_load8(q, byte)) return fault_return();
        if (byte < '0' || byte > '9') break;
        exponent = std::min(exponent * 10 + (byte - '0'), kMaxExponent);
        exp_any = true;
        ++q;
      }
      if (exp_any) {
        // A zero mantissa stays zero: pow() is inf from exponent 309 on,
        // and 0 * inf would be NaN.
        if (value != 0.0) value *= std::pow(10.0, exp_neg ? -exponent : exponent);
        p = q;
      }
    }
  }
  if (endptr != 0 && !as.try_store64(endptr, any ? p : s)) return fault_return();
  if (std::isinf(value)) ctx.machine.set_err(kERANGE);
  return SimValue::fp(negative ? -value : value);
}

SimValue fn_atof(CallContext& ctx) {
  CallContext sub{ctx.machine, ctx.state, {ctx.args.at(0), SimValue::null()}};
  return fn_strtod(sub);
}

SimValue fn_abs(CallContext& ctx) {
  const auto v = static_cast<std::int32_t>(ctx.arg_int(0));
  // abs(INT_MIN) wraps, as on two's-complement hardware.
  return SimValue::integer(v < 0 ? static_cast<std::int32_t>(0u - static_cast<std::uint32_t>(v))
                                 : v);
}

SimValue fn_labs(CallContext& ctx) {
  const std::int64_t v = ctx.arg_int(0);
  return SimValue::integer(v < 0 ? static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(v))
                                 : v);
}

}  // namespace

void register_conv_funcs(SharedLibrary& lib) {
  lib.add(make_symbol("atoi", "convert a string to int",
                      "int atoi(const char *nptr);",
                      {"NONNULL 1", "ARG 1 CSTRING", "CALLS strtol"}, fn_atoi));
  lib.add(make_symbol("atol", "convert a string to long",
                      "long atol(const char *nptr);",
                      {"NONNULL 1", "ARG 1 CSTRING", "CALLS strtol"}, fn_atol));
  lib.add(make_symbol("atof", "convert a string to double",
                      "double atof(const char *nptr);",
                      {"NONNULL 1", "ARG 1 CSTRING", "CALLS strtod"}, fn_atof));
  lib.add(make_symbol("strtol", "convert a string to long with error reporting",
                      "long strtol(const char *nptr, char **endptr, int base);",
                      {"NONNULL 1", "ARG 1 CSTRING", "ALLOWNULL 2",
                       "ARG 2 BUF WRITE SIZE 8", "ERRNO EINVAL ERANGE"},
                      fn_strtol));
  lib.add(make_symbol("strtoul", "convert a string to unsigned long",
                      "unsigned long strtoul(const char *nptr, char **endptr, int base);",
                      {"NONNULL 1", "ARG 1 CSTRING", "ALLOWNULL 2",
                       "ARG 2 BUF WRITE SIZE 8", "ERRNO EINVAL ERANGE"},
                      fn_strtoul));
  lib.add(make_symbol("strtod", "convert a string to double with error reporting",
                      "double strtod(const char *nptr, char **endptr);",
                      {"NONNULL 1", "ARG 1 CSTRING", "ALLOWNULL 2",
                       "ARG 2 BUF WRITE SIZE 8", "ERRNO ERANGE"},
                      fn_strtod));
  lib.add(make_symbol("abs", "absolute value of an int",
                      "int abs(int j);", {}, fn_abs));
  lib.add(make_symbol("labs", "absolute value of a long",
                      "long labs(long j);", {}, fn_labs));
}

}  // namespace healers::simlib
