// Interposition interface between the dynamic linker and wrapper libraries.
//
// A preloaded wrapper (paper §2.1, Fig 1) sits between the application and
// the shared libraries: every intercepted call runs the wrapper's logic,
// which may check arguments, collect statistics, veto the call, or forward
// to the next layer (another wrapper, or the base library function) — the
// simulated analogue of dlsym(RTLD_NEXT).
#pragma once

#include <memory>
#include <string>
#include <type_traits>

#include "simlib/value.hpp"

namespace healers::linker {

// Invokes the next layer in the interposition chain with (possibly modified)
// arguments; ultimately the base library function.
//
// Non-owning callable reference (function_ref): the dispatch loop builds one
// per layer on the stack of the calling frame, so — unlike std::function —
// there is no allocation or ownership bookkeeping on the per-call hot path.
// The referenced callable must outlive the call; every constructor use in
// this codebase references a named local of the dispatching frame.
class NextFn {
 public:
  template <typename F,
            std::enable_if_t<!std::is_same_v<std::remove_cvref_t<F>, NextFn>, int> = 0>
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function
  NextFn(F&& callable) noexcept
      : env_(const_cast<void*>(static_cast<const void*>(std::addressof(callable)))),
        fn_([](void* env, simlib::CallContext& ctx) -> simlib::SimValue {
          return (*static_cast<std::remove_reference_t<F>*>(env))(ctx);
        }) {}

  simlib::SimValue operator()(simlib::CallContext& ctx) const { return fn_(env_, ctx); }

 private:
  void* env_;
  simlib::SimValue (*fn_)(void*, simlib::CallContext&);
};

class Interposition {
 public:
  virtual ~Interposition() = default;

  // Wrapper library name shown in link maps and reports
  // (e.g. "security-wrapper", "profiling-wrapper").
  [[nodiscard]] virtual std::string name() const = 0;

  // The linker resolves each symbol against each wrapper once, caches the
  // returned handle in its dispatch plan, and passes it back on every call —
  // so a wrapper can locate its per-symbol state without a lookup per call.
  // nullptr means "not wrapped here": the layer is skipped entirely, the
  // paper's "pay only for the protection an application actually needs".
  // The handle must stay valid until the wrapper is destroyed; a wrapper that
  // gains symbols after being preloaded will not be seen by already-built
  // plans, so wrappers must be fully composed before dispatch begins (every
  // factory in this repo does so).
  [[nodiscard]] virtual const void* symbol_handle(const std::string& symbol) const = 0;

  // Around-advice for one call of the symbol `handle` was returned for: run
  // prefix logic, call next(ctx) zero or one times, run postfix logic, return
  // the result. Throwing SimAbort here terminates the process (the security
  // wrapper's response to an attack).
  virtual simlib::SimValue call_with_handle(const void* handle, const std::string& symbol,
                                            simlib::CallContext& ctx, const NextFn& next) = 0;
};

using InterpositionPtr = std::shared_ptr<Interposition>;

}  // namespace healers::linker
