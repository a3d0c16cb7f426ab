// Call/detection observer interface — the seam between the interposition
// machinery and the incident flight recorder (src/incident/).
//
// The linker and the wrapper hooks sit *below* the incident layer in the
// dependency graph, so they cannot name incident::FlightRecorder directly.
// Instead each simulated process carries one optional CallObserver pointer
// (LibState::observer, installed via linker::Process::set_observer); the
// dispatch loop and the detectors feed it through this interface. A null
// observer is the default and costs one predicted branch per call — the
// recorder is strictly pay-for-what-you-use, like the wrappers themselves.
//
// Observers must never touch the simulated cost model: no tick(), no
// add_cycles(). Recording is host-side bookkeeping; the golden-tick suite
// asserts that enabling an observer leaves steps/cycles bit-identical.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "memmodel/machine.hpp"
#include "support/faults.hpp"

namespace healers::simlib {

class SimValue;
struct CallContext;

// The detector families of the HEALERS wrapper stack. kAccessFault is the
// "hardware" detector (the simulated SIGSEGV); the others are wrapper-side.
enum class DetectionKind : std::uint8_t {
  kArgCheck,     // robustness wrapper vetoed a call (EINVAL containment)
  kHeapSmash,    // security wrapper: heap canary mismatch
  kStackSmash,   // security wrapper: stack bound / return-address violation
  kAccessFault,  // AccessFault surfaced through a wrapped call
  kErrorInject,  // testing wrapper injected a documented failure
  kRepair,       // repair wrapper rewrote a call instead of rejecting it
  kSurfaceViolation,  // demand loader: call to a symbol outside the
                      // executable's debloated surface profile
};

// Word i names the DetectionKind with value i (dossier XML, fleet summaries).
inline constexpr std::array<std::string_view, 7> kDetectionKindNames = {
    "arg-check",    "heap-smash", "stack-smash",      "access-fault",
    "error-inject", "repair",     "surface-violation"};

[[nodiscard]] inline std::string to_string(DetectionKind kind) {
  return std::string(kDetectionKindNames[static_cast<std::size_t>(kind)]);
}

// How a repair wrapper rewrote an unsafe call (failure-oblivious execution /
// safe substitution). Carried by on_repair and by incident::RepairEvent.
enum class RepairAction : std::uint8_t {
  kTruncateWrite,      // clamped an explicit length argument to the extent
  kSubstituteBounded,  // rewrote an unbounded copy into a bounded variant
  kSynthesizeInput,    // replaced an invalid input pointer with a benign one
  kSafeReturn,         // skipped the call, manufactured the documented error
};

// Word i names the RepairAction with value i.
inline constexpr std::array<std::string_view, 4> kRepairActionNames = {
    "truncate-write", "substitute-bounded", "synthesize-input", "safe-return"};

[[nodiscard]] inline std::string to_string(RepairAction action) {
  return std::string(kRepairActionNames[static_cast<std::size_t>(action)]);
}

class CallObserver {
 public:
  virtual ~CallObserver() = default;

  // One wrapped call is about to dispatch. Called from the linker's call
  // engine before any wrapper runs; `args` are the caller's original values.
  virtual void on_call(const std::string& symbol, const std::vector<SimValue>& args,
                       const mem::Machine& machine) = 0;

  // A wrapper detector fired mid-call. `fault_addr` is the address the
  // detection is about (clobbered allocation, rejected pointer, ...), 0 when
  // no address is involved. The detector may still terminate the process
  // (SimAbort) immediately after notifying.
  virtual void on_detection(CallContext& ctx, DetectionKind kind, const std::string& symbol,
                            const std::string& detail, mem::Addr fault_addr) = 0;

  // A call crashed (an AccessFault thrown or a fault latched) and the
  // supervisor is reaping it. The offending symbol is whatever on_call saw
  // last.
  virtual void on_fault(const mem::Machine& machine, FaultKind kind, mem::Addr fault_addr,
                        const std::string& detail) = 0;

  // A repair wrapper rewrote a call that would otherwise have crashed or been
  // rejected. `requested` is what the caller asked for (bytes, usually) and
  // `granted` what the repair allowed; `fault_addr` is the pointer the repair
  // is about. Default-empty so non-incident observers ignore repairs.
  virtual void on_repair(CallContext& ctx, RepairAction action, const std::string& symbol,
                         const std::string& detail, mem::Addr fault_addr,
                         std::uint64_t requested, std::uint64_t granted) {
    (void)ctx;
    (void)action;
    (void)symbol;
    (void)detail;
    (void)fault_addr;
    (void)requested;
    (void)granted;
  }
};

}  // namespace healers::simlib
