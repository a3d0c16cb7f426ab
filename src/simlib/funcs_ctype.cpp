// Character classification and the wide-character descriptor functions the
// paper uses as its running example (Fig 3 wraps wctrans).
//
// The is*/to* functions are table-driven through simulated memory, exactly
// like a real libc: `table[c]` with no range check. For c inside [-128, 255]
// the lookup hits the mapped table; a wild int drives the load out of the
// region and faults — reproducing Ballista's classic finding that ctype
// functions crash on out-of-range inputs.
#include "simlib/cerrno.hpp"
#include "simlib/funcs.hpp"
#include "simlib/libstate.hpp"

namespace healers::simlib {

namespace {

using detail::fault_return;
using detail::make_symbol;
using mem::Addr;

// table[c] with no range check: a wild c faults out of the table region.
// False with the fault latched then.
bool lookup(CallContext& ctx, std::int64_t c, std::uint8_t& bits) {
  const Addr table = detail::ctype_table(ctx);
  ctx.machine.tick();
  return ctx.machine.mem().try_load8(table + static_cast<std::uint64_t>(c), bits);
}

SimValue classify(CallContext& ctx, std::uint8_t mask) {
  std::uint8_t bits = 0;
  if (!lookup(ctx, ctx.arg_int(0), bits)) return fault_return();
  return SimValue::integer((bits & mask) != 0 ? 1 : 0);
}

CFunction classifier(std::uint8_t mask) {
  return [mask](CallContext& ctx) { return classify(ctx, mask); };
}

SimValue fn_isalpha(CallContext& ctx) {
  return classify(ctx, detail::kCtUpper | detail::kCtLower);
}

SimValue fn_isalnum(CallContext& ctx) {
  return classify(ctx, detail::kCtUpper | detail::kCtLower | detail::kCtDigit);
}

SimValue fn_toupper(CallContext& ctx) {
  const std::int64_t c = ctx.arg_int(0);
  std::uint8_t bits = 0;
  if (!lookup(ctx, c, bits)) return fault_return();
  return SimValue::integer((bits & detail::kCtLower) != 0 ? c - 32 : c);
}

SimValue fn_tolower(CallContext& ctx) {
  const std::int64_t c = ctx.arg_int(0);
  std::uint8_t bits = 0;
  if (!lookup(ctx, c, bits)) return fault_return();
  return SimValue::integer((bits & detail::kCtUpper) != 0 ? c + 32 : c);
}

// Wide-character transformation descriptors (the paper's Fig 3 example).
// wctrans_t values: 1 = tolower, 2 = toupper, 0 = invalid.
SimValue fn_wctrans(CallContext& ctx) {
  // Crashes on NULL / non-string input: read_cstring chases the pointer.
  std::string name;
  if (!ctx.machine.mem().try_read_cstring(ctx.arg_ptr(0), name)) return fault_return();
  ctx.machine.tick(name.size() + 1);
  if (name == "tolower") return SimValue::integer(1);
  if (name == "toupper") return SimValue::integer(2);
  ctx.machine.set_err(kEINVAL);
  return SimValue::integer(0);
}

SimValue fn_towctrans(CallContext& ctx) {
  const std::int64_t wc = ctx.arg_int(0);
  const std::int64_t desc = ctx.arg_int(1);
  ctx.machine.tick();
  if (desc == 1) {  // tolower
    return SimValue::integer(wc >= 'A' && wc <= 'Z' ? wc + 32 : wc);
  }
  if (desc == 2) {  // toupper
    return SimValue::integer(wc >= 'a' && wc <= 'z' ? wc - 32 : wc);
  }
  ctx.machine.set_err(kEINVAL);
  return SimValue::integer(wc);
}

// wctype_t values: 1..6 for the classes we model, 0 = invalid.
SimValue fn_wctype(CallContext& ctx) {
  std::string name;
  if (!ctx.machine.mem().try_read_cstring(ctx.arg_ptr(0), name)) return fault_return();
  ctx.machine.tick(name.size() + 1);
  if (name == "alpha") return SimValue::integer(1);
  if (name == "digit") return SimValue::integer(2);
  if (name == "space") return SimValue::integer(3);
  if (name == "upper") return SimValue::integer(4);
  if (name == "lower") return SimValue::integer(5);
  if (name == "alnum") return SimValue::integer(6);
  ctx.machine.set_err(kEINVAL);
  return SimValue::integer(0);
}

SimValue fn_iswctype(CallContext& ctx) {
  const std::int64_t wc = ctx.arg_int(0);
  const std::int64_t desc = ctx.arg_int(1);
  ctx.machine.tick();
  const bool upper = wc >= 'A' && wc <= 'Z';
  const bool lower = wc >= 'a' && wc <= 'z';
  const bool digit = wc >= '0' && wc <= '9';
  const bool space = wc == ' ' || (wc >= '\t' && wc <= '\r');
  switch (desc) {
    case 1: return SimValue::integer(upper || lower ? 1 : 0);
    case 2: return SimValue::integer(digit ? 1 : 0);
    case 3: return SimValue::integer(space ? 1 : 0);
    case 4: return SimValue::integer(upper ? 1 : 0);
    case 5: return SimValue::integer(lower ? 1 : 0);
    case 6: return SimValue::integer(upper || lower || digit ? 1 : 0);
    default:
      ctx.machine.set_err(kEINVAL);
      return SimValue::integer(0);
  }
}

}  // namespace

void register_ctype_funcs(SharedLibrary& lib) {
  const auto add_classifier = [&lib](const char* name, const char* summary, const char* decl,
                                     CFunction fn) {
    lib.add(make_symbol(name, summary, decl, {"ARG 1 RANGE -128 255"}, std::move(fn)));
  };
  add_classifier("isalpha", "test for an alphabetic character", "int isalpha(int c);",
                 fn_isalpha);
  add_classifier("isdigit", "test for a digit", "int isdigit(int c);",
                 classifier(detail::kCtDigit));
  add_classifier("isalnum", "test for an alphanumeric character", "int isalnum(int c);",
                 fn_isalnum);
  add_classifier("isspace", "test for whitespace", "int isspace(int c);",
                 classifier(detail::kCtSpace));
  add_classifier("isupper", "test for an uppercase letter", "int isupper(int c);",
                 classifier(detail::kCtUpper));
  add_classifier("islower", "test for a lowercase letter", "int islower(int c);",
                 classifier(detail::kCtLower));
  add_classifier("ispunct", "test for punctuation", "int ispunct(int c);",
                 classifier(detail::kCtPunct));
  add_classifier("isxdigit", "test for a hexadecimal digit", "int isxdigit(int c);",
                 classifier(detail::kCtXdigit));
  add_classifier("iscntrl", "test for a control character", "int iscntrl(int c);",
                 classifier(detail::kCtCntrl));
  add_classifier("toupper", "convert to uppercase", "int toupper(int c);", fn_toupper);
  add_classifier("tolower", "convert to lowercase", "int tolower(int c);", fn_tolower);

  lib.add(make_symbol("wctrans", "look up a wide-character transformation",
                      "wctrans_t wctrans(const char *name);",
                      {"NONNULL 1", "ARG 1 CSTRING", "ERRNO EINVAL"}, fn_wctrans));
  lib.add(make_symbol("towctrans", "apply a wide-character transformation",
                      "wint_t towctrans(wint_t wc, wctrans_t desc);",
                      {"ARG 2 RANGE 1 2", "ERRNO EINVAL"}, fn_towctrans));
  lib.add(make_symbol("wctype", "look up a wide-character class",
                      "wctype_t wctype(const char *name);",
                      {"NONNULL 1", "ARG 1 CSTRING", "ERRNO EINVAL"}, fn_wctype));
  lib.add(make_symbol("iswctype", "test a wide character against a class",
                      "int iswctype(wint_t wc, wctype_t desc);",
                      {"ARG 2 RANGE 1 6", "ERRNO EINVAL"}, fn_iswctype));
}

}  // namespace healers::simlib
