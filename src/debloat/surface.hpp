// Per-host surface profiles (docs/debloat.md).
//
// A SurfaceProfile is the telemetry document demand loading produces: for
// one executable on one host, which symbols the static closure admits, which
// the workload actually faulted in, which out-of-profile calls trapped, and
// how many text pages stayed unmapped. Hosts ship these through the same
// fleet pipe as profiling documents and crash dossiers (XML here, "HSP1"
// binary in fleet/wire.hpp), and FleetCollector aggregates them
// commutatively into the fleet-wide surface drift summary.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "debloat/reachability.hpp"
#include "linker/process.hpp"
#include "support/result.hpp"

namespace healers::xml {
class Reader;
}

namespace healers::debloat {

struct SurfaceProfile {
  std::string host;        // producing host ("local" for CLI runs)
  std::string executable;  // e.g. "netd"

  std::uint64_t exported = 0;        // symbols the load set exports
  std::uint64_t reachable = 0;       // static closure size
  std::uint64_t touched = 0;         // symbols faulted in at runtime
  std::uint64_t trapped = 0;         // out-of-profile call attempts
  std::uint64_t resident_pages = 0;  // text pages faulted in
  std::uint64_t total_pages = 0;     // pages eager binding would map

  std::vector<std::string> reachable_symbols;  // sorted
  std::vector<std::string> touched_symbols;    // sorted
  std::vector<std::string> trapped_symbols;    // sorted

  // Share of the exported surface never mapped at runtime (1 - touched /
  // exported); 0 when nothing is exported.
  [[nodiscard]] double unmapped_ratio() const noexcept;
  // Share of the exported surface outside the static closure — pure bloat
  // a debloated build would drop entirely.
  [[nodiscard]] double bloat_ratio() const noexcept;
  // Share of would-be text pages actually resident.
  [[nodiscard]] double resident_ratio() const noexcept;

  [[nodiscard]] bool operator==(const SurfaceProfile& other) const = default;

  // Deterministic XML document (<surface-profile ...>); identical profiles
  // serialize byte-identically.
  [[nodiscard]] std::string to_xml() const;
  [[nodiscard]] std::string to_text() const;
};

// Strict XML decoder for <surface-profile> documents. The reader overload
// serves callers that dispatch on the root element (the fleet collector);
// see profile::from_xml for the two overloads.
[[nodiscard]] Status surface_from_xml(xml::Reader& in, SurfaceProfile& out);
[[nodiscard]] Result<SurfaceProfile> surface_from_xml(std::string_view document);

// Snapshots the live demand-loading state of a process into a profile.
// `proc` must have demand loading enabled; resident pages are counted over
// the "text:" regions the load barrier mapped.
[[nodiscard]] SurfaceProfile capture_surface_profile(const linker::Process& proc,
                                                     const ReachabilityReport& reach,
                                                     std::string host);

}  // namespace healers::debloat
