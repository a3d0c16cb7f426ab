// Crash dossiers — the structured artifact the incident flight recorder
// snapshots at the moment a detector fires (ISSUE 4; in the spirit of
// Rigger et al.'s introspection work: rich runtime context at the detection
// point is what makes hardening actionable).
//
// A dossier is everything a post-mortem needs, captured from the simulated
// process while the corpse is still warm:
//   * the verdict: which detector fired, on which symbol, with what detail;
//   * the offending call with its decoded arguments;
//   * the last-N wrapped-call trace from the flight recorder's ring buffer;
//   * the heap-chunk neighborhood around the implicated address (with the
//     corrupted chunk marked, and chunk-chain truncation made explicit);
//   * the region map around the implicated address.
//
// Dossiers are pure data derived from deterministic simulated state, so both
// serializations (XML here, length-prefixed binary in fleet/wire.hpp) are
// byte-identical across runs and across --jobs settings — tests byte-compare
// them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "memmodel/addr_space.hpp"
#include "simlib/observer.hpp"
#include "support/result.hpp"
#include "xml/xml.hpp"

namespace healers::incident {

// One ring-buffer record: a wrapped call as the flight recorder saw it at
// dispatch. Arguments are digested, not stored — the ring must be cheap to
// feed — but the digest is stable, so identical traces compare equal.
struct TraceEntry {
  std::uint64_t seq = 0;         // process-wide dispatch sequence number
  std::uint64_t tick = 0;        // machine steps at dispatch
  std::uint64_t cycles = 0;      // virtual cycle clock at dispatch
  std::uint64_t arg_digest = 0;  // FNV-1a over (kind, bits) of every argument
  std::uint32_t argc = 0;
  std::string symbol;

  [[nodiscard]] bool operator==(const TraceEntry&) const = default;
};

// One heap chunk in the neighborhood of the implicated address.
struct ChunkState {
  std::uint64_t header = 0;
  std::uint64_t user = 0;
  std::uint64_t size = 0;
  bool in_use = false;
  bool suspect = false;  // contains the implicated address

  [[nodiscard]] bool operator==(const ChunkState&) const = default;
};

// One applied repair (ISSUE 9): a repair wrapper rewrote a call instead of
// rejecting it. Dossiers carry the repairs applied so far so a post-mortem
// can see *what was repaired and why* next to what was detected.
struct RepairEvent {
  std::uint64_t seq = 0;    // dispatch sequence number of the repaired call
  std::uint64_t tick = 0;   // machine steps at the repair
  simlib::RepairAction action = simlib::RepairAction::kTruncateWrite;
  std::string symbol;       // the rewritten call
  std::string detail;       // policy provenance + what was changed
  std::uint64_t fault_addr = 0;  // the pointer the repair is about
  std::uint64_t requested = 0;   // what the caller asked for (bytes)
  std::uint64_t granted = 0;     // what the repair allowed

  [[nodiscard]] bool operator==(const RepairEvent&) const = default;
};

// One mapped region near the implicated address.
struct RegionState {
  std::uint64_t base = 0;
  std::uint64_t size = 0;
  std::uint8_t perm = 0;  // mem::Perm bits
  std::string kind;       // region kind name ("heap", "stack", ...)
  std::string label;
  bool suspect = false;  // contains the implicated address

  [[nodiscard]] bool operator==(const RegionState&) const = default;
};

struct Dossier {
  std::string process;
  simlib::DetectionKind detector = simlib::DetectionKind::kAccessFault;
  std::string symbol;  // offending call ("?" when no call was in flight)
  std::string detail;  // detector's own message
  std::uint64_t seq = 0;
  std::uint64_t tick = 0;
  std::uint64_t cycles = 0;
  std::uint64_t fault_addr = 0;    // implicated address, 0 when none
  std::vector<std::string> args;   // decoded arguments of the offending call
  std::vector<TraceEntry> trace;   // oldest first, the offending call last
  std::vector<ChunkState> heap;    // neighborhood around fault_addr
  std::string heap_note;           // e.g. "chunk chain truncated at 0x..."
  std::vector<RegionState> regions;
  std::vector<RepairEvent> repairs;  // repairs applied up to this dossier

  [[nodiscard]] bool operator==(const Dossier&) const = default;

  // Self-describing XML document (<dossier> root), deterministic field and
  // child order — the byte-compare surface.
  [[nodiscard]] xml::Node to_xml() const;

  // Human-readable post-mortem (the `healers dossier` default rendering).
  [[nodiscard]] std::string to_text() const;
};

// Strict decoder for the <dossier> document (round-trips to_xml()); see
// profile::from_xml for the two overloads.
[[nodiscard]] Status from_xml(xml::Reader& in, Dossier& out);
[[nodiscard]] Result<Dossier> from_xml(std::string_view document);

}  // namespace healers::incident
