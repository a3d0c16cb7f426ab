// The derivation service's request/response protocol (ISSUE 5).
//
// Clients ask the service for the two artifacts HEALERS derives per library:
//
//   * kDerive  — the robust API (a full injector::CampaignResult), shipped
//                as campaign XML or the compact "HCB1" binary document;
//   * kBundle  — a wrapper policy bundle: the generated C wrapper source
//                (Fig 3) for one wrapper type. Robustness bundles derive the
//                campaign first (server-side, memoized) — the client never
//                has to ship a spec file back.
//
// Requests and responses both exist in XML and binary wire forms, sniffed
// by magic exactly like the fleet document formats, so a mixed client
// population can talk to one server during a rollout. One format field
// controls BOTH the envelope and the campaign payload encoding — binary
// payloads never ride inside XML character data. The binary forms (HRQ1,
// HRS1) are the Layout field lists at the end of this file.
//
// Everything in a response is a pure function of the request and the
// library content: byte-identical across worker counts, queue shapes, and
// (for cache hits) across server restarts.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "fleet/record.hpp"
#include "injector/injector.hpp"
#include "server/codec.hpp"
#include "support/result.hpp"
#include "xml/xml.hpp"

namespace healers::server {

inline constexpr std::string_view kResponseMagic =
    fleet::record::magic(fleet::record::Kind::kResponse).bytes;

enum class Endpoint : std::uint8_t {
  kDerive = 0,  // robust-API derivation -> campaign document
  kBundle = 1,  // wrapper policy bundle -> generated C source
};

// Which wrapper policy a kBundle request wants (mirrors `healers
// gen-source --type`).
enum class BundleKind : std::uint8_t {
  kRobustness = 0,  // argument checks from the derived robust API
  kSecurity = 1,    // heap canaries + stack guards
  kProfiling = 2,   // Fig 3 call counting / timing / errno profiling
  kRepair = 3,      // campaign-derived repair policy (truncate / substitute)
};

// Wire encoding of the envelope AND of a derive response's campaign payload.
enum class WireFormat : std::uint8_t {
  kXml = 0,
  kBinary = 1,
};

enum class ResponseStatus : std::uint8_t {
  kOk = 0,
  kError = 1,  // bad request, unknown library, campaign failure
  kShed = 2,   // admission control rejected the request (queue overflow)
};

// Word i names the enumerator with value i (the XML attribute values).
inline constexpr std::array<std::string_view, 2> kEndpointNames = {"derive", "bundle"};
inline constexpr std::array<std::string_view, 4> kBundleNames = {"robustness", "security",
                                                                 "profiling", "repair"};
inline constexpr std::array<std::string_view, 2> kFormatNames = {"xml", "binary"};
inline constexpr std::array<std::string_view, 3> kStatusNames = {"ok", "error", "shed"};

[[nodiscard]] inline std::string_view to_string(BundleKind kind) noexcept {
  return kBundleNames[static_cast<std::size_t>(kind)];
}

// The campaign parameters it inherits are the result-affecting knobs. Engine
// knobs (jobs, snapshot_reset) are deliberately absent: they never change a
// single output byte, so they are the server's business.
struct DeriveRequest : injector::CampaignParams {
  Endpoint endpoint = Endpoint::kDerive;
  std::string soname;
  BundleKind bundle = BundleKind::kRobustness;  // kBundle requests only
  WireFormat format = WireFormat::kXml;

  // The campaign configuration this request pins down.
  [[nodiscard]] injector::InjectorConfig injector_config() const;

  // Canonical single-flight key: two requests with equal keys are satisfied
  // by one computation and receive byte-identical response bytes. It is the
  // HRQ1 record without its magic.
  [[nodiscard]] std::string canonical_key() const;

  [[nodiscard]] xml::Node to_xml() const;
  // Decodes a <derive-request> into `request` (see profile::from_xml for the
  // two overloads).
  [[nodiscard]] static Status from_xml(xml::Reader& in, DeriveRequest& request);
  [[nodiscard]] static Result<DeriveRequest> from_xml(std::string_view document);
  [[nodiscard]] std::string encode() const;  // in this->format
  // Format-sniffing decoder: binary by magic, otherwise XML.
  [[nodiscard]] static Result<DeriveRequest> decode(std::string_view payload);
};

struct DeriveResponse {
  ResponseStatus status = ResponseStatus::kOk;
  std::uint64_t probes = 0;   // campaign's recorded probe count (kDerive ok)
  std::string error;          // kError / kShed detail
  std::string payload;        // campaign document or bundle C source

  [[nodiscard]] xml::Node to_xml() const;
  [[nodiscard]] static Status from_xml(xml::Reader& in, DeriveResponse& response);
  [[nodiscard]] static Result<DeriveResponse> from_xml(std::string_view document);
  [[nodiscard]] std::string encode(WireFormat format) const;
  [[nodiscard]] static Result<DeriveResponse> decode(std::string_view payload);
};

}  // namespace healers::server

namespace healers::fleet::record {

template <>
struct Layout<server::DeriveRequest> {
  static constexpr Kind kKind = Kind::kRequest;
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.u32(r.endpoint, server::Endpoint::kBundle);
    v.str(r.soname);
    Layout<injector::CampaignParams>::fields(v, r);
    if (r.endpoint == server::Endpoint::kBundle) {
      v.u32(r.bundle, server::BundleKind::kRepair);
    } else {
      v.absent(r.bundle);  // derive requests carry no bundle kind
    }
    v.u32(r.format, server::WireFormat::kBinary);
  }
};

template <>
struct Layout<server::DeriveResponse> {
  static constexpr Kind kKind = Kind::kResponse;
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.u32(r.status, server::ResponseStatus::kShed);
    v.u64(r.probes);
    v.str(r.error);
    v.str(r.payload);
  }
};

}  // namespace healers::fleet::record
