#include "linker/process.hpp"

#include <stdexcept>

#include "simlib/observer.hpp"

namespace healers::linker {

std::string CallOutcome::to_string() const {
  switch (kind) {
    case Kind::kReturned:
      return "returned " + ret.to_string();
    case Kind::kCrash:
      return "crash (" + healers::to_string(signal) + "): " + detail;
    case Kind::kHang:
      return "hang: " + detail;
    case Kind::kAbort:
      return "abort: " + detail;
    case Kind::kExit:
      return "exit " + std::to_string(exit_code);
    case Kind::kHijack:
      return "HIJACKED: " + detail;
    case Kind::kNotRun:
      return "not run: " + detail;
  }
  return "?";
}

Process::Process(std::string name, mem::MachineConfig config)
    : name_(std::move(name)), machine_(config) {}

void Process::load_library(const simlib::SharedLibrary* lib) {
  if (lib == nullptr) throw std::invalid_argument("Process::load_library: null library");
  libraries_.push_back(lib);
  if (demand_loading_) {
    // The load barrier: exports stay unmapped until first call. Only the
    // export count is taken now, for the bloat-ratio denominator.
    surface_.exported += lib->names().size();
  } else {
    // Populate GOT slots for the library's exports (all slots bind at load,
    // as with LD_BIND_NOW).
    for (const std::string& symbol : lib->names()) {
      machine_.define_got_slot(symbol);
    }
  }
  plans_.clear();  // new definitions may change symbol resolution
}

void Process::preload(InterpositionPtr wrapper) {
  if (wrapper == nullptr) throw std::invalid_argument("Process::preload: null wrapper");
  // Reject the same *instance* twice (it would dispatch twice per call);
  // distinct instances sharing a family name ("profiling-wrapper" for two
  // libraries) are a legitimate stack.
  for (const InterpositionPtr& existing : preloads_) {
    if (existing.get() == wrapper.get()) {
      throw std::invalid_argument("Process::preload: duplicate wrapper '" + wrapper->name() +
                                  "'");
    }
  }
  preloads_.push_back(std::move(wrapper));
  plans_.clear();  // the new layer must appear in every affected chain
}

void Process::enable_demand_loading(std::vector<std::string> profile) {
  if (!libraries_.empty()) {
    throw std::logic_error("Process::enable_demand_loading: libraries already loaded");
  }
  demand_loading_ = true;
  profile_.insert(std::make_move_iterator(profile.begin()),
                  std::make_move_iterator(profile.end()));
}

mem::Addr Process::fault_in_symbol(const std::string& symbol) {
  const mem::Addr slot = machine_.define_got_slot(symbol);
  // The symbol's code pages fault into the COW space as a one-page
  // read-only region; resident_pages() over "text:" regions is the working
  // set the surface profile reports.
  const simlib::SharedLibrary* owner = nullptr;
  for (const simlib::SharedLibrary* lib : libraries_) {
    if (lib->find(symbol) != nullptr) {
      owner = lib;
      break;
    }
  }
  machine_.mem().map(mem::kCowPageSize, mem::Perm::kRead, mem::RegionKind::kRodata,
                     "text:" + (owner != nullptr ? owner->soname() : std::string("?")) + ":" +
                         symbol);
  ++surface_.mapped;
  touched_.insert(symbol);
  return slot;
}

void Process::trap_surface_violation(const std::string& symbol,
                                     std::vector<simlib::SimValue> args) {
  ++surface_.violations;
  trapped_.insert(symbol);
  const std::string detail = "call to '" + symbol + "' outside the surface profile (" +
                             std::to_string(profile_.size()) + " symbols reachable)";
  if (observer_ != nullptr) {
    simlib::CallContext ctx{machine_, state_, std::move(args)};
    observer_->on_detection(ctx, simlib::DetectionKind::kSurfaceViolation, symbol, detail, 0);
  }
  throw SimAbort("surface violation: " + detail);
}

const simlib::Symbol* Process::resolve(const std::string& symbol) const {
  for (const simlib::SharedLibrary* lib : libraries_) {
    if (const simlib::Symbol* found = lib->find(symbol)) return found;
  }
  return nullptr;
}

Process::DispatchPlan& Process::plan_for(const std::string& symbol) {
  const auto it = plans_.find(symbol);
  if (it != plans_.end()) return it->second;
  DispatchPlan plan;
  for (const InterpositionPtr& wrapper : preloads_) {
    if (const void* handle = wrapper->symbol_handle(symbol)) {
      plan.steps.push_back({wrapper.get(), handle});
    }
  }
  plan.base = resolve(symbol);
  return plans_.emplace(symbol, std::move(plan)).first->second;
}

simlib::SimValue Process::run_plan(const DispatchPlan& plan, std::size_t layer,
                                   const std::string& symbol, simlib::CallContext& ctx) {
  if (layer == plan.steps.size()) {
    if (plan.base == nullptr) {
      // Unresolved at call time: the loader would have refused to start; for
      // a running process this is the closest analogue of a PLT failure.
      throw AccessFault(FaultKind::kSegv, 0, "unresolved symbol " + symbol);
    }
    simlib::SimValue ret = plan.base->fn(ctx);
    if (layer != 0 && machine_.faulted()) machine_.mem().raise_fault();
    return ret;
  }
  // `frame` is the named local NextFn references; it lives for the whole
  // wrapper call, satisfying the function_ref lifetime contract.
  struct Frame {
    Process* proc;
    const DispatchPlan* plan;
    const std::string* symbol;
    std::size_t next_layer;
    simlib::SimValue operator()(simlib::CallContext& inner) const {
      return proc->run_plan(*plan, next_layer, *symbol, inner);
    }
  } frame{this, &plan, &symbol, layer + 1};
  const NextFn next = frame;
  const DispatchStep& step = plan.steps[layer];
  return step.wrapper->call_with_handle(step.handle, symbol, ctx, next);
}

simlib::SimValue Process::call(const std::string& symbol, std::vector<simlib::SimValue> args) {
  simlib::SimValue ret = dispatch(symbol, std::move(args));
  if (machine_.faulted()) machine_.mem().raise_fault();
  return ret;
}

simlib::SimValue Process::dispatch(const std::string& symbol,
                                   std::vector<simlib::SimValue>&& args) {
  // The GOT hop: validates that the slot still points at real code. An
  // attacker-rewritten slot raises ControlFlowHijack here — *before* any
  // wrapper or library code runs, like a hijacked PLT jump. A plan that
  // knows its slot turns a call through the intact slot into one lookup,
  // the slot's load and its step; any other call resolves what it loaded.
  const DispatchPlan* plan = nullptr;
  mem::Addr slot = 0;
  mem::Addr code = 0;
  const auto cached = plans_.find(symbol);
  if (cached != plans_.end() && cached->second.slot != 0) {
    slot = cached->second.slot;
    code = machine_.load_got(slot);
    if (code == cached->second.code) plan = &cached->second;
  } else {
    slot = machine_.find_got_slot(symbol);
    // The load barrier (demand loading only): a resolvable symbol with no
    // GOT slot is either faulted in (profile member) or trapped as a
    // surface violation.
    if (slot == 0 && demand_loading_ && resolve(symbol) != nullptr) {
      if (!profile_.contains(symbol)) {
        ++calls_dispatched_;
        if (observer_ != nullptr) observer_->on_call(symbol, args, machine_);
        trap_surface_violation(symbol, std::move(args));
      }
      slot = fault_in_symbol(symbol);
    }
    // A symbol with no slot (nothing loaded defines it) runs its own plan,
    // whose missing base reports the unresolved-symbol crash.
    if (slot == 0) {
      plan = &plan_for(symbol);
    } else {
      code = machine_.load_got(slot);
    }
  }
  // Without a plan yet, name the code the slot held and take its plan.
  std::string callee;
  const std::string* target = &symbol;
  if (plan == nullptr) {
    callee = machine_.callee_at(symbol, code);
    DispatchPlan& resolved = plan_for(callee);
    if (callee == symbol) {
      resolved.slot = slot;
      resolved.code = code;
    }
    plan = &resolved;
    target = &callee;
  }
  // Dispatch stays in this frame: a crash that still throws unwinds every
  // frame up to the supervising catch.
  ++calls_dispatched_;
  // Flight-recorder feed: host-side bookkeeping only, so the branch is the
  // entire fast-path cost when no recorder is attached (and the recorder
  // never touches steps/cycles when one is — golden-tick enforced).
  if (observer_ != nullptr) observer_->on_call(*target, args, machine_);
  simlib::CallContext ctx{machine_, state_, std::move(args)};
  return run_plan(*plan, 0, *target, ctx);
}

void Process::reap_crash(CallOutcome& outcome, const FaultRecord& fault) {
  outcome = CallOutcome{};
  outcome.kind = CallOutcome::Kind::kCrash;
  outcome.signal = fault.kind;
  outcome.detail = fault.to_string();
  if (observer_ != nullptr) observer_->on_fault(machine_, fault.kind, fault.address, fault.detail);
}

template <typename Body>
CallOutcome Process::reap(Body&& body) {
  CallOutcome outcome;
  try {
    body(outcome);
  } catch (const AccessFault& fault) {
    // A fault latched before this one was thrown wins, below.
    if (!machine_.faulted()) {
      ++crashes_unwound_;
      reap_crash(outcome, fault.record());
    }
  } catch (const SimHang& hang) {
    outcome.kind = CallOutcome::Kind::kHang;
    outcome.detail = hang.what();
  } catch (const SimAbort& abort_) {
    outcome.kind = CallOutcome::Kind::kAbort;
    outcome.detail = abort_.reason();
  } catch (const ControlFlowHijack& hijack) {
    outcome.kind = CallOutcome::Kind::kHijack;
    outcome.detail = hijack.detail();
  } catch (const SimExit& exit_) {
    outcome.kind = CallOutcome::Kind::kExit;
    outcome.exit_code = exit_.code();
  } catch (...) {
    if (!machine_.faulted()) throw;
  }
  // Taken before the observer runs: a dossier reads memory, and a latched
  // fault would trip on it.
  if (machine_.faulted()) reap_crash(outcome, machine_.mem().take_fault());
  return outcome;
}

CallOutcome Process::supervised_call(const std::string& symbol,
                                     std::vector<simlib::SimValue> args) {
  return reap([&](CallOutcome& outcome) {
    outcome.ret = dispatch(symbol, std::move(args));
    outcome.kind = CallOutcome::Kind::kReturned;
  });
}

CallOutcome Process::run(const std::function<int(Process&)>& program) {
  return reap([&](CallOutcome& outcome) {
    outcome.exit_code = program(*this);
    outcome.kind = CallOutcome::Kind::kExit;
  });
}

mem::Addr Process::alloc_cstring(const std::string& text) {
  const mem::Addr addr = machine_.heap().malloc(text.size() + 1);
  if (addr == 0) throw std::runtime_error("Process::alloc_cstring: simulated heap exhausted");
  machine_.mem().write_cstring(addr, text);
  return addr;
}

mem::Addr Process::scratch(std::uint64_t size, mem::Perm perm, const std::string& label) {
  return machine_.mem().map(size, perm, mem::RegionKind::kScratch, label).base;
}

mem::Addr Process::rodata_cstring(const std::string& text) {
  return machine_.intern_string(text);
}

Process::Snapshot Process::snapshot() {
  Snapshot snap;
  snap.machine = machine_.snapshot();
  snap.state = std::make_shared<const simlib::LibState>(state_.snapshot());
  snap.calls_dispatched = calls_dispatched_;
  snap.library_count = libraries_.size();
  snap.preload_count = preloads_.size();
  return snap;
}

void Process::restore(const Snapshot& snap) {
  if (libraries_.size() < snap.library_count || preloads_.size() < snap.preload_count) {
    throw std::logic_error("Process::restore: load set shrank since snapshot");
  }
  libraries_.resize(snap.library_count);
  preloads_.resize(snap.preload_count);
  plans_.clear();  // plans may reference wrappers/symbols dropped by the resize
  machine_.restore(snap.machine);
  state_.restore(*snap.state);
  state_.observer = observer_;  // the recorder survives testbed resets
  calls_dispatched_ = snap.calls_dispatched;
}

mem::Addr Process::register_callback(const std::string& name, simlib::CFunction fn) {
  const mem::Addr addr = machine_.register_code("callback:" + name);
  state_.callbacks[addr] = std::move(fn);
  return addr;
}

}  // namespace healers::linker
