// Fleet wire formats (ROADMAP: "heavy traffic from millions of users").
//
// The paper ships profile documents as self-describing XML (§2.3). At fleet
// scale the XML round-trip dominates ingest cost, so producers may instead
// emit a compact binary record of the SAME document: a profile report
// (HFB1), a crash dossier (HDB1) or a surface profile (HSP1). Their layouts
// are the Layout field lists below, run by the record engine
// (fleet/record.hpp); decode_document() accepts either format for profiles
// (binary by magic, XML otherwise) so a collector can serve a mixed fleet
// during a rollout.
//
// A *document stream* (HFDS1) is the on-disk/on-wire batch form: a list of
// payloads, each one XML or binary document.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "debloat/surface.hpp"
#include "fleet/record.hpp"
#include "incident/dossier.hpp"
#include "profile/report.hpp"
#include "support/result.hpp"

namespace healers::fleet {

// Magic prefix of a binary profile document.
inline constexpr std::string_view kBinaryMagic = record::magic(record::Kind::kProfile).bytes;

// Report / dossier / surface profile -> compact binary document
// (deterministic: equal documents encode byte-identically).
[[nodiscard]] std::string encode_binary(const profile::ProfileReport& report);
[[nodiscard]] std::string encode_dossier_binary(const incident::Dossier& dossier);
[[nodiscard]] std::string encode_surface_binary(const debloat::SurfaceProfile& profile);

// Format-sniffing profile decoder: binary by magic, otherwise parsed as XML.
[[nodiscard]] Result<profile::ProfileReport> decode_document(std::string_view payload);

// Batch framing: documents -> one stream blob, and back.
[[nodiscard]] std::string frame_stream(const std::vector<std::string>& documents);
[[nodiscard]] Result<std::vector<std::string>> unframe_stream(std::string_view stream);

}  // namespace healers::fleet

namespace healers::fleet::record {

template <>
struct Layout<profile::FunctionProfile> {
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.str(r.symbol);
    v.u64(r.calls);
    v.u64(r.cycles);
    v.u64(r.contained);
    v.map(r.errno_counts);
  }
};

template <>
struct Layout<profile::ProfileReport> {
  static constexpr Kind kKind = Kind::kProfile;
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.str(r.process);
    v.str(r.wrapper);
    v.list(r.functions);
    v.map(r.global_errnos);
  }
};

template <>
struct Layout<incident::TraceEntry> {
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.u64(r.seq);
    v.u64(r.tick);
    v.u64(r.cycles);
    v.u64(r.arg_digest);
    v.u32(r.argc);
    v.str(r.symbol);
  }
};

template <>
struct Layout<incident::ChunkState> {
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.u64(r.header);
    v.u64(r.user);
    v.u64(r.size);
    v.flags(r.in_use, r.suspect);
  }
};

template <>
struct Layout<incident::RegionState> {
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.u64(r.base);
    v.u64(r.size);
    v.u32(r.perm);
    v.flags(r.suspect);
    v.str(r.kind);
    v.str(r.label);
  }
};

template <>
struct Layout<incident::RepairEvent> {
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.u64(r.seq);
    v.u64(r.tick);
    v.u32(r.action, simlib::RepairAction::kSafeReturn);
    v.str(r.symbol);
    v.str(r.detail);
    v.u64(r.fault_addr);
    v.u64(r.requested);
    v.u64(r.granted);
  }
};

template <>
struct Layout<incident::Dossier> {
  static constexpr Kind kKind = Kind::kDossier;
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.str(r.process);
    v.u32(r.detector, simlib::DetectionKind::kSurfaceViolation);
    v.str(r.symbol);
    v.str(r.detail);
    v.u64(r.seq);
    v.u64(r.tick);
    v.u64(r.cycles);
    v.u64(r.fault_addr);
    v.list(r.args);
    v.list(r.trace);
    v.str(r.heap_note);
    v.list(r.heap);
    v.list(r.regions);
    v.list(r.repairs);
  }
};

template <>
struct Layout<debloat::SurfaceProfile> {
  static constexpr Kind kKind = Kind::kSurface;
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.str(r.host);
    v.str(r.executable);
    v.u64(r.exported);
    v.u64(r.reachable);
    v.u64(r.touched);
    v.u64(r.trapped);
    v.u64(r.resident_pages);
    v.u64(r.total_pages);
    v.list(r.reachable_symbols);
    v.list(r.touched_symbols);
    v.list(r.trapped_symbols);
  }
};

// The document stream: a plain list of payloads.
template <>
struct Layout<std::vector<std::string>> {
  static constexpr Kind kKind = Kind::kStream;
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.list(r);
  }
};

}  // namespace healers::fleet::record
