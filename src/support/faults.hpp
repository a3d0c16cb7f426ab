// Fault vocabulary for the simulated machine.
//
// The paper's fault-injection driver observed real process deaths (SIGSEGV,
// SIGBUS, SIGABRT) and timeouts. Our simulated substrate raises these as C++
// exceptions at the precise access that would have trapped; the injector
// sandbox and the linker call engine are the only layers that catch them and
// turn them into CallOutcome data (the simulated analogue of the supervising
// driver process reaping a dead child).
#pragma once

#include <cstdint>
#include <stdexcept>
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

// Raised by the memory model / simulated machine at the faulting access.
class AccessFault : public std::runtime_error {
 public:
  AccessFault(FaultKind kind, std::uint64_t address, std::string detail)
      : std::runtime_error(to_string(kind) + " at 0x" + to_hex(address) + ": " + detail),
        kind_(kind),
        address_(address),
        detail_(std::move(detail)) {}

  [[nodiscard]] FaultKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::uint64_t address() const noexcept { return address_; }
  [[nodiscard]] const std::string& detail() const noexcept { return detail_; }

 private:
  FaultKind kind_;
  std::uint64_t address_;
  std::string detail_;
};

// Raised when simulated library code calls abort() (e.g. on detected heap
// corruption) or when a wrapper terminates the process on a detected attack.
class SimAbort : public std::runtime_error {
 public:
  explicit SimAbort(std::string reason)
      : std::runtime_error("abort: " + reason), reason_(std::move(reason)) {}

  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }

 private:
  std::string reason_;
};

// Raised when the simulated step budget is exhausted (hang detection).
class SimHang : public std::runtime_error {
 public:
  explicit SimHang(std::uint64_t steps)
      : std::runtime_error("hang: step budget " + std::to_string(steps) + " exhausted"),
        steps_(steps) {}

  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }

 private:
  std::uint64_t steps_;
};

// Raised when simulated control flow is hijacked (return address or function
// pointer overwritten by an attack) — the "attacker got a shell" outcome of
// demo 3.4. A security wrapper's job is to abort before this is ever thrown.
class ControlFlowHijack : public std::runtime_error {
 public:
  explicit ControlFlowHijack(std::string detail)
      : std::runtime_error("control-flow hijack: " + detail), detail_(std::move(detail)) {}

  [[nodiscard]] const std::string& detail() const noexcept { return detail_; }

 private:
  std::string detail_;
};

// Raised when simulated code calls exit(): orderly process termination, not
// a fault. The linker call engine converts it to the process exit status.
class SimExit : public std::runtime_error {
 public:
  explicit SimExit(int code)
      : std::runtime_error("exit(" + std::to_string(code) + ")"), code_(code) {}

  [[nodiscard]] int code() const noexcept { return code_; }

 private:
  int code_;
};

}  // namespace healers
