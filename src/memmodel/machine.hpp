// The simulated machine: one address space + heap + stack + the three
// oracles the paper's fault-injection driver relied on, made deterministic:
//
//   * crash oracle  — an access fault from the address space (SIGSEGV
//                     analogue), thrown or latched (support/faults.hpp),
//   * hang oracle   — a step budget; library loops call tick() per unit of
//                     work and SimHang fires when the budget is exhausted
//                     (the driver's watchdog timeout analogue),
//   * hijack oracle — a simulated GOT of named function-pointer slots; an
//                     indirect call through a slot whose value no longer
//                     names registered code raises ControlFlowHijack (the
//                     "attacker got a shell" outcome of demo §3.4).
//
// It also carries the per-process errno cell and a virtual cycle counter
// (the rdtsc analogue read by the profiling micro-generator, Fig 3).
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "memmodel/addr_space.hpp"
#include "memmodel/heap.hpp"
#include "memmodel/stack.hpp"

namespace healers::mem {

struct MachineConfig {
  std::uint64_t heap_size = 1 << 20;   // 1 MiB arena
  std::uint64_t stack_size = 64 << 10; // 64 KiB
  std::uint64_t step_budget = 10'000'000;  // SimHang beyond this many steps

  auto operator<=>(const MachineConfig&) const = default;
};

class Machine {
 public:
  explicit Machine(MachineConfig config = {});

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] AddressSpace& mem() noexcept { return space_; }
  [[nodiscard]] const AddressSpace& mem() const noexcept { return space_; }
  [[nodiscard]] Heap& heap() noexcept { return *heap_; }
  [[nodiscard]] Stack& stack() noexcept { return *stack_; }
  [[nodiscard]] const Heap& heap() const noexcept { return *heap_; }
  [[nodiscard]] const Stack& stack() const noexcept { return *stack_; }

  // --- hang oracle ---
  // Consumes `n` steps of work; throws SimHang when the budget is exceeded.
  // Each step also advances the virtual cycle clock. A latched fault is
  // thrown instead, before any step is taken (the tripwire: no work follows
  // a fault).
  void tick(std::uint64_t n = 1);
  // How many of `n` per-unit {tick(); work} iterations would complete before
  // the budget hangs. Bulk loops tick and commit this many units, then issue
  // one more tick() to raise SimHang at exactly the step the reference
  // per-byte loop would have (DESIGN.md, tick-equivalence argument).
  [[nodiscard]] std::uint64_t budget_units(std::uint64_t n) const noexcept {
    const std::uint64_t budget = config_.step_budget;
    const std::uint64_t left = budget > steps_ ? budget - steps_ : 0;
    return n < left ? n : left;
  }
  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }
  [[nodiscard]] std::uint64_t step_budget() const noexcept { return config_.step_budget; }
  void set_step_budget(std::uint64_t budget) noexcept { config_.step_budget = budget; }
  void reset_steps() noexcept { steps_ = 0; }

  // --- virtual cycle clock (rdtsc analogue) ---
  [[nodiscard]] std::uint64_t rdtsc() const noexcept { return cycles_; }
  void add_cycles(std::uint64_t n) noexcept { cycles_ += n; }

  // --- crash oracle ---
  // True while the address space holds a latched fault.
  [[nodiscard]] bool faulted() const noexcept { return space_.faulted(); }

  // --- errno cell ---
  [[nodiscard]] int err() const noexcept { return errno_; }
  void set_err(int value) noexcept { errno_ = value; }

  // --- rodata interning (string literals, read-only test values) ---
  // Maps `text` (NUL-terminated) into a read-only region and returns its
  // simulated address. Identical strings are interned once.
  Addr intern_string(const std::string& text);

  // --- simulated text segment & GOT (hijack oracle) ---
  // Registers a named code entry point; returns its pseudo code address in
  // the (read-only) text region. Idempotent per name.
  Addr register_code(const std::string& name);
  // Resolves a code address back to its name; nullopt for addresses that do
  // not denote registered code (i.e. attacker-chosen values).
  [[nodiscard]] std::optional<std::string> resolve_code(Addr addr) const;

  // Defines a writable 8-byte GOT slot holding the code address for `name`
  // (registering the code if needed). Returns the slot address. The slot is
  // ordinary writable data — exactly why GOT overwrites work.
  Addr define_got_slot(const std::string& name);
  [[nodiscard]] Addr got_slot(const std::string& name) const;
  // The slot address for `name`, or 0 when it has none (no slot sits at 0).
  [[nodiscard]] Addr find_got_slot(const std::string& name) const noexcept;
  [[nodiscard]] bool has_got_slot(const std::string& name) const noexcept {
    return find_got_slot(name) != 0;
  }

  // An indirect call through a GOT slot, in two halves. load_got reads the
  // code address stored at `slot` and charges the call's one step;
  // callee_at names the registered code at the loaded `code`, or raises
  // ControlFlowHijack (naming the slot of `name`) when the slot was
  // overwritten with a non-code value.
  Addr load_got(Addr slot);
  [[nodiscard]] std::string callee_at(const std::string& name, Addr code) const;
  // Both halves through the named slot; returns the callee name.
  std::string call_through_got(const std::string& name) {
    return callee_at(name, load_got(got_slot(name)));
  }

  // --- snapshot / restore --------------------------------------------------
  // Captures the whole machine: address-space contents (as a refcounted COW
  // image — see AddressSpace::Snapshot), heap/stack bookkeeping,
  // step/cycle/errno cells, and the rodata/text/GOT loader tables. restore()
  // rewinds to exactly that state and clears a latched fault; the fault
  // injector uses it to reset a fully-loaded testbed between probes instead
  // of rebuilding the process. Snapshots are cheap to copy and any number
  // may coexist; a machine may restore any of them in any order.
  //
  // Each loader table is frozen into an immutable shared copy at most once
  // per change: snapshots taken while a table is unchanged share its copy,
  // and the copy's identity is the table's generation. restore() copies back
  // only the tables whose generation differs from the live one.
  using NameTable = std::unordered_map<std::string, Addr>;
  struct CodeTable {
    std::unordered_map<std::string, Addr> by_name;
    std::unordered_map<Addr, std::string> by_code;
  };
  struct Snapshot {
    AddressSpace::Snapshot space;
    Heap::Snapshot heap;
    Stack::Snapshot stack;
    MachineConfig config;
    std::uint64_t steps = 0;
    std::uint64_t cycles = 0;
    int err = 0;
    std::uint64_t rodata_used = 0;
    std::uint64_t text_next = 0;
    std::uint64_t got_next = 0;
    std::shared_ptr<const NameTable> interned;
    std::shared_ptr<const CodeTable> code;
    std::shared_ptr<const NameTable> got_slots;
  };
  [[nodiscard]] Snapshot snapshot();
  void restore(const Snapshot& snap);

 private:
  // A live loader table and its frozen copy. `frozen` is null once `live`
  // changed after the last freeze; otherwise *frozen equals live.
  template <typename T>
  struct LoaderTable {
    T live;
    std::shared_ptr<const T> frozen;

    T& edit() {
      frozen.reset();
      return live;
    }
    const std::shared_ptr<const T>& freeze() {
      if (frozen == nullptr) frozen = std::make_shared<const T>(live);
      return frozen;
    }
    void rewind(const std::shared_ptr<const T>& snap) {
      if (frozen == snap) return;
      live = *snap;
      frozen = snap;
    }
  };

  MachineConfig config_;
  AddressSpace space_;
  std::unique_ptr<Heap> heap_;
  std::unique_ptr<Stack> stack_;

  std::uint64_t steps_ = 0;
  std::uint64_t cycles_ = 0;
  int errno_ = 0;

  // rodata interning
  Addr rodata_base_ = 0;
  std::uint64_t rodata_used_ = 0;
  std::uint64_t rodata_size_ = 0;
  LoaderTable<NameTable> interned_;

  // text + GOT
  Addr text_base_ = 0;
  std::uint64_t text_next_ = 0;
  LoaderTable<CodeTable> code_;
  Addr got_base_ = 0;
  std::uint64_t got_next_ = 0;
  std::uint64_t got_capacity_ = 0;
  LoaderTable<NameTable> got_slots_;
};

}  // namespace healers::mem
