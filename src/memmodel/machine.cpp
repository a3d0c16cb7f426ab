#include "memmodel/machine.hpp"

#include <stdexcept>

namespace healers::mem {

namespace {
constexpr std::uint64_t kRodataSize = 256 << 10;
constexpr std::uint64_t kTextSize = 64 << 10;
constexpr std::uint64_t kGotSize = 8 << 10;
constexpr std::uint64_t kCodeStride = 16;  // pseudo function entry spacing
}  // namespace

Machine::Machine(MachineConfig config) : config_(config) {
  // Map text and rodata first so they sit at low, stable addresses.
  Region& text = space_.map(kTextSize, Perm::kRead, RegionKind::kRodata, "text");
  text_base_ = text.base;
  text_next_ = 0;

  Region& rodata = space_.map(kRodataSize, Perm::kRead, RegionKind::kRodata, "rodata");
  rodata_base_ = rodata.base;
  rodata_size_ = kRodataSize;

  Region& got = space_.map(kGotSize, Perm::kReadWrite, RegionKind::kData, "got");
  got_base_ = got.base;
  got_capacity_ = kGotSize;

  heap_ = std::make_unique<Heap>(space_, config_.heap_size);
  stack_ = std::make_unique<Stack>(space_, config_.stack_size);
}

void Machine::tick(std::uint64_t n) {
  if (space_.faulted()) space_.raise_fault();
  steps_ += n;
  cycles_ += n;
  if (steps_ > config_.step_budget) {
    throw SimHang(config_.step_budget);
  }
}

Addr Machine::intern_string(const std::string& text) {
  if (auto it = interned_.live.find(text); it != interned_.live.end()) return it->second;
  const std::uint64_t need = text.size() + 1;
  if (rodata_used_ + need > rodata_size_) {
    throw std::runtime_error("Machine: rodata segment exhausted");
  }
  const Addr addr = rodata_base_ + rodata_used_;
  // rodata is mapped read-only; loader_fill bypasses the permission check
  // (this is the loader populating the segment, not simulated program code)
  // while still honouring the COW write barrier.
  space_.loader_fill(addr, text.data(), text.size());
  const char nul = '\0';
  space_.loader_fill(addr + text.size(), &nul, 1);
  rodata_used_ += need;
  interned_.edit().emplace(text, addr);
  return addr;
}

Addr Machine::register_code(const std::string& name) {
  if (auto it = code_.live.by_name.find(name); it != code_.live.by_name.end()) return it->second;
  if (text_next_ + kCodeStride > kTextSize) {
    throw std::runtime_error("Machine: text segment exhausted");
  }
  const Addr addr = text_base_ + text_next_;
  text_next_ += kCodeStride;
  CodeTable& code = code_.edit();
  code.by_name.emplace(name, addr);
  code.by_code.emplace(addr, name);
  return addr;
}

std::optional<std::string> Machine::resolve_code(Addr addr) const {
  auto it = code_.live.by_code.find(addr);
  if (it == code_.live.by_code.end()) return std::nullopt;
  return it->second;
}

Addr Machine::define_got_slot(const std::string& name) {
  if (auto it = got_slots_.live.find(name); it != got_slots_.live.end()) return it->second;
  if (got_next_ + 8 > got_capacity_) {
    throw std::runtime_error("Machine: GOT exhausted");
  }
  const Addr slot = got_base_ + got_next_;
  got_next_ += 8;
  space_.store64(slot, register_code(name));
  got_slots_.edit().emplace(name, slot);
  return slot;
}

Addr Machine::got_slot(const std::string& name) const {
  auto it = got_slots_.live.find(name);
  if (it == got_slots_.live.end()) {
    throw std::invalid_argument("Machine: no GOT slot for " + name);
  }
  return it->second;
}

Addr Machine::find_got_slot(const std::string& name) const noexcept {
  const auto it = got_slots_.live.find(name);
  return it != got_slots_.live.end() ? it->second : 0;
}

Addr Machine::load_got(Addr slot) {
  const Addr code = space_.load64(slot);
  tick();
  return code;
}

std::string Machine::callee_at(const std::string& name, Addr code) const {
  if (auto callee = resolve_code(code)) return *std::move(callee);
  throw ControlFlowHijack("indirect call through GOT slot '" + name + "' jumped to 0x" +
                          to_hex(code) + " (not program code)");
}

Machine::Snapshot Machine::snapshot() {
  Snapshot snap;
  snap.space = space_.snapshot();
  snap.heap = heap_->snapshot();
  snap.stack = stack_->snapshot();
  snap.config = config_;
  snap.steps = steps_;
  snap.cycles = cycles_;
  snap.err = errno_;
  snap.rodata_used = rodata_used_;
  snap.text_next = text_next_;
  snap.got_next = got_next_;
  snap.interned = interned_.freeze();
  snap.code = code_.freeze();
  snap.got_slots = got_slots_.freeze();
  return snap;
}

void Machine::restore(const Snapshot& snap) {
  space_.restore(snap.space);
  heap_->restore(snap.heap);
  stack_->restore(snap.stack);
  config_ = snap.config;
  steps_ = snap.steps;
  cycles_ = snap.cycles;
  errno_ = snap.err;
  rodata_used_ = snap.rodata_used;
  text_next_ = snap.text_next;
  got_next_ = snap.got_next;
  interned_.rewind(snap.interned);
  code_.rewind(snap.code);
  got_slots_.rewind(snap.got_slots);
}

}  // namespace healers::mem
