// Simulated process + dynamic link loader.
//
// A Process owns one simulated machine and C-runtime state, a list of loaded
// shared libraries (searched in load order, like DT_NEEDED resolution), and
// a preload list of wrapper interpositions (outermost first, like
// LD_PRELOAD). Calls go:
//
//     app --> GOT slot --> [wrapper, wrapper, ...] --> base library function
//
// The GOT hop is the hijack oracle: each symbol gets a writable 8-byte slot
// holding its code address, and every call validates the slot before
// dispatch — so a heap-unlink or stack-smash that rewrites a slot turns the
// *next* call into a ControlFlowHijack, exactly like a GOT-overwrite exploit.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "linker/interpose.hpp"
#include "memmodel/machine.hpp"
#include "simlib/library.hpp"
#include "simlib/libstate.hpp"

namespace healers::linker {

// Terminal result of a supervised call or program run — the data the
// fault-injection driver reaps from a probe (paper Fig 2).
struct CallOutcome {
  enum class Kind : std::uint8_t {
    kReturned,  // normal return (value in `ret`)
    kCrash,     // AccessFault (signal in `signal`)
    kHang,      // step budget exhausted
    kAbort,     // SimAbort (library- or wrapper-initiated termination)
    kExit,      // orderly exit() (status in `exit_code`)
    kHijack,    // control flow left the program (successful exploit)
    kNotRun,    // the probe never executed (no such test case / symbol gone);
                // must never be folded into verdict statistics
  };

  Kind kind = Kind::kReturned;
  simlib::SimValue ret = simlib::SimValue::integer(0);
  FaultKind signal = FaultKind::kSegv;
  int exit_code = 0;
  std::string detail;

  [[nodiscard]] bool robustness_failure() const noexcept {
    return kind == Kind::kCrash || kind == Kind::kHang || kind == Kind::kAbort ||
           kind == Kind::kHijack;
  }
  [[nodiscard]] std::string to_string() const;
};

class Process {
 public:
  explicit Process(std::string name, mem::MachineConfig config = {});

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] mem::Machine& machine() noexcept { return machine_; }
  [[nodiscard]] const mem::Machine& machine() const noexcept { return machine_; }
  [[nodiscard]] simlib::LibState& state() noexcept { return state_; }

  // Attaches (or detaches, with nullptr) an incident flight recorder. The
  // Process owns the authoritative pointer and mirrors it into
  // LibState::observer for the wrapper detectors; restore() re-asserts it so
  // a snapshot taken before the recorder was attached cannot detach it. The
  // observer itself is not owned and must outlive the process.
  void set_observer(simlib::CallObserver* observer) noexcept {
    observer_ = observer;
    state_.observer = observer;
  }
  [[nodiscard]] simlib::CallObserver* observer() const noexcept { return observer_; }

  // --- loading ---
  // Loads a shared library (non-owning; the library must outlive the
  // process). Resolution searches libraries in load order. Defines a GOT
  // slot for every symbol the library exports — unless demand loading is
  // enabled, in which case exports stay behind the load barrier.
  void load_library(const simlib::SharedLibrary* lib);
  // Prepends/appends a wrapper to the preload list. Wrappers preloaded
  // earlier are outermost (first to see the call), matching LD_PRELOAD.
  // Preloading the same wrapper object (or another wrapper with the same
  // name) twice throws std::invalid_argument — a double LD_PRELOAD entry
  // would silently double every detector.
  void preload(InterpositionPtr wrapper);

  // --- demand loading (debloat, docs/debloat.md) ---
  // Switches the loader to lazy binding against a surface profile: exports
  // of subsequently loaded libraries start unmapped (no GOT slot, no text
  // page). The first call to a profile symbol faults it in — defines its
  // GOT slot and maps its one-page text region — while a call to a
  // resolvable symbol OUTSIDE the profile raises the surface-violation
  // detector on the observer and terminates the process (SimAbort).
  // Enable before loading libraries; throws std::logic_error afterwards.
  void enable_demand_loading(std::vector<std::string> profile);
  [[nodiscard]] bool demand_loading() const noexcept { return demand_loading_; }

  struct SurfaceCounters {
    std::uint64_t exported = 0;    // symbols the load set exports (with dups)
    std::uint64_t mapped = 0;      // symbols faulted in so far
    std::uint64_t violations = 0;  // out-of-profile call attempts
  };
  [[nodiscard]] const SurfaceCounters& surface() const noexcept { return surface_; }
  // Symbols faulted in so far, sorted (the dynamic "touched" trace).
  [[nodiscard]] const std::set<std::string>& touched_symbols() const noexcept {
    return touched_;
  }
  // Out-of-profile symbols whose calls trapped, sorted.
  [[nodiscard]] const std::set<std::string>& trapped_symbols() const noexcept {
    return trapped_;
  }
  [[nodiscard]] const std::vector<const simlib::SharedLibrary*>& libraries() const noexcept {
    return libraries_;
  }
  [[nodiscard]] const std::vector<InterpositionPtr>& preloads() const noexcept {
    return preloads_;
  }

  // First library defining `symbol`, or nullptr.
  [[nodiscard]] const simlib::Symbol* resolve(const std::string& symbol) const;

  // --- calling ---
  // Raw call: interposition chain runs; faults propagate as exceptions.
  // This is what application code uses, so that a crash inside any call
  // unwinds the whole simulated program: a fault the library latched is
  // rethrown here, at the application boundary.
  simlib::SimValue call(const std::string& symbol, std::vector<simlib::SimValue> args);

  // Supervised call: like call(), but faults are reaped into a CallOutcome.
  // A fault the library latched becomes the outcome without any unwinding.
  CallOutcome supervised_call(const std::string& symbol, std::vector<simlib::SimValue> args);

  // Runs a whole simulated program under supervision. The program's int
  // return becomes kExit with that status; faults are reaped as above.
  CallOutcome run(const std::function<int(Process&)>& program);

  // Crashes the supervisor reaped from an unwound AccessFault rather than
  // from a latched fault (telemetry; a program's crash always unwinds, a
  // probe's only where a fault site still throws). Survives restore().
  [[nodiscard]] std::uint64_t crashes_unwound() const noexcept { return crashes_unwound_; }

  // --- convenience for app/test code (not part of the libc surface) ---
  // Heap-allocates and fills a NUL-terminated string; throws on OOM.
  mem::Addr alloc_cstring(const std::string& text);
  // Maps a dedicated scratch region (exact size, fault-bounded on both
  // ends thanks to guard gaps) — the injector's precise test buffers.
  mem::Addr scratch(std::uint64_t size, mem::Perm perm = mem::Perm::kReadWrite,
                    const std::string& label = "scratch");
  // Read-only string (interned into rodata).
  mem::Addr rodata_cstring(const std::string& text);

  // Registers an application callback (e.g. a qsort comparator): allocates
  // a code address for `name` and binds `fn` to it in the C runtime's
  // callback table. The returned address is what the app passes as a
  // function-pointer argument.
  mem::Addr register_callback(const std::string& name, simlib::CFunction fn);

  // Number of calls dispatched through this process (all symbols).
  [[nodiscard]] std::uint64_t calls_dispatched() const noexcept { return calls_dispatched_; }

  // --- snapshot / restore ---
  // Captures machine + C-runtime state after the testbed is fully loaded;
  // restore() rewinds both, giving the fault injector a fresh process
  // without reconstructing and reloading it. The machine half is a
  // refcounted COW image and the C-runtime half is shared immutable state,
  // so a Snapshot is cheap to copy, any number may coexist, and one frozen
  // Snapshot can reset many processes (linker::TestbedState forks shells
  // from exactly such a shared pristine snapshot). The loaded-library and
  // preload lists are NOT part of the snapshot: a restore requires the same
  // load set that was present at snapshot time (checked).
  struct Snapshot {
    mem::Machine::Snapshot machine;
    std::shared_ptr<const simlib::LibState> state;
    std::uint64_t calls_dispatched = 0;
    std::size_t library_count = 0;
    std::size_t preload_count = 0;
  };
  [[nodiscard]] Snapshot snapshot();
  // Throws std::logic_error when the load set changed since the snapshot.
  void restore(const Snapshot& snap);

 private:
  // Per-symbol dispatch plan: which preloaded wrappers interpose on the
  // symbol (with each wrapper's pre-resolved handle) and the base library
  // function. Built lazily on first call and cached, so the hot path walks
  // a flat array instead of asking every layer's symbol_handle() per call.
  // Invalidated whenever the load set changes (load_library / preload /
  // restore). A plan also remembers the symbol's GOT slot and the code
  // address the slot held when a call through it first reached the plan
  // (0 until then), so a call through an intact slot needs no other lookup.
  struct DispatchStep {
    Interposition* wrapper = nullptr;
    const void* handle = nullptr;
  };
  struct DispatchPlan {
    std::vector<DispatchStep> steps;
    const simlib::Symbol* base = nullptr;
    mem::Addr slot = 0;
    mem::Addr code = 0;
  };
  DispatchPlan& plan_for(const std::string& symbol);
  // call() without the boundary rethrow: a fault the library latched is
  // still latched when this returns.
  simlib::SimValue dispatch(const std::string& symbol, std::vector<simlib::SimValue>&& args);
  // Runs the plan from `layer` down. At the base layer a latched fault is
  // rethrown when wrapper layers sit above it, so wrappers see it unwind.
  simlib::SimValue run_plan(const DispatchPlan& plan, std::size_t layer,
                            const std::string& symbol, simlib::CallContext& ctx);
  // The one reaping path of supervised_call and run: runs `body`, then turns
  // whatever ended it — a latched fault, or a thrown fault, hang, abort,
  // hijack or exit — into the outcome. A latched fault wins over any
  // exception that escaped after it.
  template <typename Body>
  CallOutcome reap(Body&& body);
  void reap_crash(CallOutcome& outcome, const FaultRecord& fault);
  // Demand loading: defines the GOT slot and maps the symbol's text page.
  // Returns the slot.
  mem::Addr fault_in_symbol(const std::string& symbol);
  // Demand loading: raises the surface-violation detector and aborts.
  [[noreturn]] void trap_surface_violation(const std::string& symbol,
                                           std::vector<simlib::SimValue> args);

  std::string name_;
  mem::Machine machine_;
  simlib::LibState state_;
  std::vector<const simlib::SharedLibrary*> libraries_;
  std::vector<InterpositionPtr> preloads_;
  std::unordered_map<std::string, DispatchPlan> plans_;
  std::uint64_t calls_dispatched_ = 0;
  std::uint64_t crashes_unwound_ = 0;
  simlib::CallObserver* observer_ = nullptr;

  // Demand-loading state (inert unless enable_demand_loading ran).
  bool demand_loading_ = false;
  std::set<std::string> profile_;  // symbols allowed through the barrier
  std::set<std::string> touched_;  // symbols faulted in, sorted
  std::set<std::string> trapped_;  // out-of-profile symbols that trapped
  SurfaceCounters surface_;
};

}  // namespace healers::linker
