// Miscellaneous runtime functions: environment access, pseudo-random
// numbers, and process termination (exit/abort — converted by the linker
// call engine into process exit status / abort outcome).
#include "simlib/cerrno.hpp"
#include "simlib/funcs.hpp"
#include "simlib/libstate.hpp"

namespace healers::simlib {

namespace {

using detail::fault_return;
using detail::make_symbol;
using mem::Addr;

SimValue fn_getenv(CallContext& ctx) {
  std::string name;
  if (!ctx.machine.mem().try_read_cstring(ctx.arg_ptr(0), name)) return fault_return();
  ctx.machine.tick(name.size() + 1);
  auto it = ctx.state.env.find(name);
  if (it == ctx.state.env.end()) return SimValue::null();
  // Like a real environment block, the returned pointer aliases stable
  // storage owned by the runtime.
  return SimValue::ptr(ctx.machine.intern_string(it->second));
}

SimValue fn_rand(CallContext& ctx) {
  ctx.machine.tick();
  ctx.state.rand_state = ctx.state.rand_state * 6364136223846793005ULL + 1442695040888963407ULL;
  return SimValue::integer(static_cast<std::int64_t>((ctx.state.rand_state >> 33) & 0x7fffffff));
}

SimValue fn_srand(CallContext& ctx) {
  ctx.machine.tick();
  ctx.state.rand_state = ctx.arg_size(0);
  return SimValue::integer(0);
}

SimValue fn_exit(CallContext& ctx) {
  throw SimExit(static_cast<int>(ctx.arg_int(0)));
}

SimValue fn_abort(CallContext& ctx) {
  (void)ctx;
  throw SimAbort("abort() called");
}

}  // namespace

void register_misc_funcs(SharedLibrary& lib) {
  lib.add(make_symbol("getenv", "look up an environment variable",
                      "char *getenv(const char *name);",
                      {"NONNULL 1", "ARG 1 CSTRING"}, fn_getenv));
  lib.add(make_symbol("rand", "pseudo-random number", "int rand(void);", {"STATEFUL"},
                      fn_rand));
  lib.add(make_symbol("srand", "seed the pseudo-random generator",
                      "void srand(unsigned int seed);", {"STATEFUL"}, fn_srand));
  lib.add(make_symbol("exit", "terminate the process",
                      "void exit(int status);", {"NORETURN"}, fn_exit));
  lib.add(make_symbol("abort", "abort the process",
                      "void abort(void);", {"NORETURN"}, fn_abort));
}

}  // namespace healers::simlib
