// Sorting/searching family: qsort and bsearch, the libc functions that call
// BACK into application code through a function-pointer argument.
//
// The comparator address is resolved through the per-process callback table
// (LibState::callbacks). Calling through an address that is not registered
// application code is, as on real hardware, a jump into data: it faults.
// This makes the comparator argument a first-class fault-injection target
// (probed with the pointer lattice) and gives the robustness wrapper a
// FUNCPTR precondition to enforce.
#include "simlib/cerrno.hpp"
#include "simlib/funcs.hpp"
#include "simlib/libstate.hpp"

namespace healers::simlib {

namespace {

using detail::fault_return;
using detail::make_symbol;
using mem::Addr;
using mem::AddressSpace;

// Invokes the comparator at `code` on element addresses (a, b). A jump
// through a bad function pointer latches the crash, as does a fault inside
// the comparator; the result is meaningless then (test Machine::faulted()).
int call_comparator(CallContext& ctx, Addr code, Addr a, Addr b) {
  ctx.machine.tick(2);
  auto it = ctx.state.callbacks.find(code);
  if (it == ctx.state.callbacks.end()) {
    ctx.machine.mem().latch_fault(FaultKind::kSegv, code, "call through invalid function pointer");
    return 0;
  }
  CallContext sub{ctx.machine, ctx.state, {SimValue::ptr(a), SimValue::ptr(b)}};
  return static_cast<int>(it->second(sub).as_int());
}

// False with the fault latched when an access faults.
bool swap_elements(CallContext& ctx, Addr a, Addr b, std::uint64_t size) {
  AddressSpace& as = ctx.machine.mem();
  for (std::uint64_t i = 0; i < size; ++i) {
    std::uint8_t tmp = 0;
    std::uint8_t other = 0;
    ctx.machine.tick();
    if (!as.try_load8(a + i, tmp) || !as.try_load8(b + i, other) ||
        !as.try_store8(a + i, other) || !as.try_store8(b + i, tmp)) {
      return false;
    }
  }
  return true;
}

SimValue fn_qsort(CallContext& ctx) {
  const Addr base = ctx.arg_ptr(0);
  const std::uint64_t nmemb = ctx.arg_size(1);
  const std::uint64_t size = ctx.arg_size(2);
  const Addr compar = ctx.arg_ptr(3);
  if (nmemb < 2) {
    if (nmemb == 1 && !ctx.machine.mem().try_check(base, size, mem::Perm::kRead)) {
      return fault_return();
    }
    return SimValue::integer(0);
  }
  // Insertion sort: simple, stable enough for libc semantics, and every
  // comparison/move ticks so pathological inputs hit the hang oracle.
  for (std::uint64_t i = 1; i < nmemb; ++i) {
    for (std::uint64_t j = i; j > 0; --j) {
      ctx.machine.tick();
      const Addr prev = base + (j - 1) * size;
      const Addr cur = base + j * size;
      const int cmp = call_comparator(ctx, compar, prev, cur);
      if (ctx.machine.faulted()) return fault_return();
      if (cmp <= 0) break;
      if (!swap_elements(ctx, prev, cur, size)) return fault_return();
    }
  }
  return SimValue::integer(0);
}

SimValue fn_bsearch(CallContext& ctx) {
  const Addr key = ctx.arg_ptr(0);
  const Addr base = ctx.arg_ptr(1);
  std::uint64_t lo = 0;
  std::uint64_t hi = ctx.arg_size(2);
  const std::uint64_t size = ctx.arg_size(3);
  const Addr compar = ctx.arg_ptr(4);
  while (lo < hi) {
    ctx.machine.tick();
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const Addr elem = base + mid * size;
    const int cmp = call_comparator(ctx, compar, key, elem);
    if (ctx.machine.faulted()) return fault_return();
    if (cmp == 0) return SimValue::ptr(elem);
    if (cmp < 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return SimValue::null();
}

}  // namespace

void register_sort_funcs(SharedLibrary& lib) {
  lib.add(make_symbol(
      "qsort", "sort an array with a caller-supplied comparator",
      "void qsort(void *base, size_t nmemb, size_t size, "
      "int (*compar)(const void *, const void *));",
      {"NONNULL 1 4", "ARG 1 BUF WRITE SIZE mul(arg(2),arg(3))", "ARG 4 FUNCPTR",
       "CALLS memcpy"},
      fn_qsort));
  lib.add(make_symbol(
      "bsearch", "binary-search a sorted array with a caller-supplied comparator",
      "void *bsearch(const void *key, const void *base, size_t nmemb, size_t size, "
      "int (*compar)(const void *, const void *));",
      {"NONNULL 1 2 5", "ARG 2 BUF READ SIZE mul(arg(3),arg(4))", "ARG 5 FUNCPTR"},
      fn_bsearch));
}

}  // namespace healers::simlib
