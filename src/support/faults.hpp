// Fault vocabulary for the simulated machine.
//
// The paper's fault-injection driver observed real process deaths (SIGSEGV,
// SIGBUS, SIGABRT) and timeouts. The simulated substrate delivers them in
// one of two ways:
//
//   * Latched and returned. Inside simulated library code an invalid access
//     goes through a non-throwing accessor (mem::AddressSpace::try_load8 and
//     its siblings): the address space latches the FaultRecord the throwing
//     accessor would have thrown, and the library function returns at once
//     with no further tick, store, errno write or C-runtime change. The
//     linker's supervisor reaps the latch into a CallOutcome without any
//     unwinding (the simulated analogue of a supervising process reaping a
//     dead child). Where a caller needs an exception, the linker rethrows
//     the latch as an AccessFault: at the application boundary
//     (Process::call), and below a wrapper layer, so the fault unwinds
//     through every wrapper above the library.
//   * Thrown. The throwing accessors (load8, span, ...), hangs, aborts,
//     hijacks and exit raise the exceptions below.
//
// A latched fault is a tripwire: the next Machine::tick() or checked access
// throws it, so code that ignores a latch is only slower, never different.
// The injector sandbox and the linker call engine are the only layers that
// turn either form into CallOutcome data.
#pragma once

#include <cstdint>
#include <exception>
#include <string>

namespace healers {

// Signal-like classification of a simulated fault.
enum class FaultKind : std::uint8_t {
  kSegv,        // invalid address / permission violation  (SIGSEGV)
  kBus,         // misaligned or torn access               (SIGBUS)
  kAbort,       // library detected corruption and aborted (SIGABRT)
  kHang,        // step budget exhausted (driver timeout)
  kHijack,      // simulated control flow left the program (successful exploit)
};

[[nodiscard]] std::string to_string(FaultKind kind);

// Lower-case hex digits of value, without a prefix ("0" for 0).
[[nodiscard]] std::string to_hex(std::uint64_t value);
// "0x" and to_hex(value): how HEALERS prints an address or a digest.
[[nodiscard]] inline std::string hex_addr(std::uint64_t value) { return "0x" + to_hex(value); }

// One access fault: what AccessFault carries and what an address space
// latches.
struct FaultRecord {
  FaultKind kind = FaultKind::kSegv;
  std::uint64_t address = 0;
  std::string detail;

  // "SIGSEGV at 0x10: unmapped address" — AccessFault::what() and the
  // detail of a reaped crash.
  [[nodiscard]] std::string to_string() const;
};

// Base of every simulated fault exception. what() is built on first read:
// the supervisor reaps most faults from their fields and never prints them.
class SimFault : public std::exception {
 public:
  [[nodiscard]] const char* what() const noexcept override;

 protected:
  [[nodiscard]] virtual std::string describe() const = 0;

 private:
  mutable std::string what_;
};

// An access fault thrown rather than latched (see the header comment).
class AccessFault : public SimFault {
 public:
  AccessFault(FaultKind kind, std::uint64_t address, std::string detail)
      : fault_{kind, address, std::move(detail)} {}
  explicit AccessFault(FaultRecord fault) : fault_(std::move(fault)) {}

  [[nodiscard]] FaultKind kind() const noexcept { return fault_.kind; }
  [[nodiscard]] std::uint64_t address() const noexcept { return fault_.address; }
  [[nodiscard]] const std::string& detail() const noexcept { return fault_.detail; }
  [[nodiscard]] const FaultRecord& record() const noexcept { return fault_; }

 private:
  [[nodiscard]] std::string describe() const override { return fault_.to_string(); }

  FaultRecord fault_;
};

// Raised when simulated library code calls abort() (e.g. on detected heap
// corruption) or when a wrapper terminates the process on a detected attack.
class SimAbort : public SimFault {
 public:
  explicit SimAbort(std::string reason) : reason_(std::move(reason)) {}

  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }

 private:
  [[nodiscard]] std::string describe() const override { return "abort: " + reason_; }

  std::string reason_;
};

// Raised when the simulated step budget is exhausted (hang detection).
class SimHang : public SimFault {
 public:
  explicit SimHang(std::uint64_t steps) : steps_(steps) {}

  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }

 private:
  [[nodiscard]] std::string describe() const override {
    return "hang: step budget " + std::to_string(steps_) + " exhausted";
  }

  std::uint64_t steps_;
};

// Raised when simulated control flow is hijacked (return address or function
// pointer overwritten by an attack) — the "attacker got a shell" outcome of
// demo 3.4. A security wrapper's job is to abort before this is ever thrown.
class ControlFlowHijack : public SimFault {
 public:
  explicit ControlFlowHijack(std::string detail) : detail_(std::move(detail)) {}

  [[nodiscard]] const std::string& detail() const noexcept { return detail_; }

 private:
  [[nodiscard]] std::string describe() const override {
    return "control-flow hijack: " + detail_;
  }

  std::string detail_;
};

// Raised when simulated code calls exit(): orderly process termination, not
// a fault. The linker call engine converts it to the process exit status.
class SimExit : public SimFault {
 public:
  explicit SimExit(int code) : code_(code) {}

  [[nodiscard]] int code() const noexcept { return code_; }

 private:
  [[nodiscard]] std::string describe() const override {
    return "exit(" + std::to_string(code_) + ")";
  }

  int code_;
};

}  // namespace healers
