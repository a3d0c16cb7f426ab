// Memory family: mem* block operations and the allocation entry points that
// forward to the simulated chunked heap. calloc keeps the historical
// multiplication-overflow bug (CVE-2002-0391 era): nmemb*size wraps silently.
#include "simlib/bulk.hpp"
#include "simlib/cerrno.hpp"
#include "simlib/funcs.hpp"
#include "simlib/libstate.hpp"

namespace healers::simlib {

namespace {

using detail::make_symbol;
using mem::Addr;

SimValue fn_memcpy(CallContext& ctx) {
  const Addr dest = ctx.arg_ptr(0);
  // Forward byte copy, no overlap handling (memcpy's historical laxity):
  // copy_forward self-replicates on forward overlap just like the byte loop.
  bulk::copy_forward(ctx.machine, dest, ctx.arg_ptr(1), ctx.arg_size(2));
  return SimValue::ptr(dest);
}

SimValue fn_memmove(CallContext& ctx) {
  const Addr dest = ctx.arg_ptr(0);
  const Addr src = ctx.arg_ptr(1);
  const std::uint64_t n = ctx.arg_size(2);
  if (dest <= src) {
    bulk::copy_forward(ctx.machine, dest, src, n);
  } else {
    bulk::copy_backward(ctx.machine, dest, src, n);
  }
  return SimValue::ptr(dest);
}

SimValue fn_memset(CallContext& ctx) {
  const Addr dest = ctx.arg_ptr(0);
  bulk::fill(ctx.machine, dest, static_cast<std::uint8_t>(ctx.arg_int(1)), ctx.arg_size(2));
  return SimValue::ptr(dest);
}

SimValue fn_memcmp(CallContext& ctx) {
  return SimValue::integer(bulk::compare(ctx.machine, ctx.arg_ptr(0), ctx.arg_ptr(1),
                                         ctx.arg_size(2), /*stop_at_nul=*/false,
                                         /*fold_case=*/false));
}

SimValue fn_memchr(CallContext& ctx) {
  const Addr s = ctx.arg_ptr(0);
  const std::uint64_t n = ctx.arg_size(2);
  const std::uint64_t k =
      bulk::find_byte(ctx.machine, s, static_cast<std::uint8_t>(ctx.arg_int(1)), n);
  return k < n ? SimValue::ptr(s + k) : SimValue::null();
}

SimValue fn_malloc(CallContext& ctx) {
  ctx.machine.tick(8);
  const Addr p = ctx.machine.heap().malloc(ctx.arg_size(0));
  if (p == 0) ctx.machine.set_err(kENOMEM);
  return SimValue::ptr(p);
}

SimValue fn_free(CallContext& ctx) {
  ctx.machine.tick(8);
  ctx.machine.heap().free(ctx.arg_ptr(0));
  return SimValue::integer(0);
}

SimValue fn_calloc(CallContext& ctx) {
  // Historical bug preserved: the multiplication wraps, so
  // calloc(SIZE_MAX/2+1, 2) quietly allocates ~0 bytes.
  const std::uint64_t total = ctx.arg_size(0) * ctx.arg_size(1);
  ctx.machine.tick(8);
  const Addr p = ctx.machine.heap().malloc(total);
  if (p == 0) {
    ctx.machine.set_err(kENOMEM);
    return SimValue::null();
  }
  bulk::fill(ctx.machine, p, 0, total);
  return SimValue::ptr(p);
}

SimValue fn_realloc(CallContext& ctx) {
  ctx.machine.tick(8);
  const Addr p = ctx.machine.heap().realloc(ctx.arg_ptr(0), ctx.arg_size(1));
  if (ctx.machine.faulted()) return detail::fault_return();
  if (p == 0 && ctx.arg_size(1) != 0) ctx.machine.set_err(kENOMEM);
  return SimValue::ptr(p);
}

}  // namespace

void register_memory_funcs(SharedLibrary& lib) {
  lib.add(make_symbol("memcpy", "copy a memory block",
                      "void *memcpy(void *dest, const void *src, size_t n);",
                      {"NONNULL 1 2", "ARG 2 BUF READ SIZE arg(3)",
                       "ARG 1 BUF WRITE SIZE arg(3)"},
                      fn_memcpy));
  lib.add(make_symbol("memmove", "copy a possibly overlapping memory block",
                      "void *memmove(void *dest, const void *src, size_t n);",
                      {"NONNULL 1 2", "ARG 2 BUF READ SIZE arg(3)",
                       "ARG 1 BUF WRITE SIZE arg(3)"},
                      fn_memmove));
  lib.add(make_symbol("memset", "fill a memory block",
                      "void *memset(void *s, int c, size_t n);",
                      {"NONNULL 1", "ARG 1 BUF WRITE SIZE arg(3)"}, fn_memset));
  lib.add(make_symbol("memcmp", "compare two memory blocks",
                      "int memcmp(const void *s1, const void *s2, size_t n);",
                      {"NONNULL 1 2", "ARG 1 BUF READ SIZE arg(3)",
                       "ARG 2 BUF READ SIZE arg(3)"},
                      fn_memcmp));
  lib.add(make_symbol("memchr", "locate a byte in a memory block",
                      "void *memchr(const void *s, int c, size_t n);",
                      {"NONNULL 1", "ARG 1 BUF READ SIZE arg(3)"}, fn_memchr));
  lib.add(make_symbol("malloc", "allocate heap memory",
                      "void *malloc(size_t size);", {"HEAP ALLOC", "ERRNO ENOMEM"},
                      fn_malloc));
  lib.add(make_symbol("free", "release heap memory",
                      "void free(void *ptr);",
                      {"HEAP FREE", "ARG 1 HEAPPTR", "ALLOWNULL 1"}, fn_free));
  lib.add(make_symbol("calloc", "allocate zeroed heap memory",
                      "void *calloc(size_t nmemb, size_t size);",
                      {"HEAP ALLOC", "ERRNO ENOMEM", "CALLS malloc memset"}, fn_calloc));
  lib.add(make_symbol("realloc", "resize a heap allocation",
                      "void *realloc(void *ptr, size_t size);",
                      {"HEAP ALLOC", "ARG 1 HEAPPTR", "ALLOWNULL 1", "ERRNO ENOMEM",
                       "CALLS malloc memcpy free"},
                      fn_realloc));
}

}  // namespace healers::simlib
