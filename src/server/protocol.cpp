#include "server/protocol.hpp"

#include <utility>

namespace healers::server {

injector::InjectorConfig DeriveRequest::injector_config() const {
  injector::InjectorConfig config;
  static_cast<injector::CampaignParams&>(config) = *this;
  return config;
}

std::string DeriveRequest::canonical_key() const {
  std::string key;
  fleet::record::write(key, *this);
  return key;
}

xml::Node DeriveRequest::to_xml() const {
  xml::Node node("derive-request");
  node.set_attr("endpoint", xml::name_of(kEndpointNames, endpoint));
  node.set_attr("soname", soname);
  node.set_attr("seed", std::to_string(seed));
  node.set_attr("variants", std::to_string(variants));
  node.set_attr("budget", std::to_string(probe_step_budget));
  node.set_attr("heap", std::to_string(testbed_heap));
  node.set_attr("stack", std::to_string(testbed_stack));
  if (endpoint == Endpoint::kBundle) node.set_attr("bundle", xml::name_of(kBundleNames, bundle));
  node.set_attr("format", xml::name_of(kFormatNames, format));
  return node;
}

Status DeriveRequest::from_xml(xml::Reader& in, DeriveRequest& request) {
  if (in.name() != "derive-request") return Error("expected <derive-request>");
  // Everything but the soname may be absent and keeps its default. variants,
  // an int, is bounded by INT_MAX, so it also fits its HRQ1 field, a u32.
  request = DeriveRequest{};
  xml::AttrReader attrs(in);
  attrs.word("endpoint", request.endpoint, kEndpointNames, xml::kOptional);
  attrs.str("soname", request.soname);
  attrs.num("seed", request.seed, xml::kOptional);
  attrs.num("variants", request.variants, xml::kOptional);
  attrs.num("budget", request.probe_step_budget, xml::kOptional);
  attrs.num("heap", request.testbed_heap, xml::kOptional);
  attrs.num("stack", request.testbed_stack, xml::kOptional);
  attrs.word("bundle", request.bundle, kBundleNames, xml::kOptional);
  attrs.word("format", request.format, kFormatNames, xml::kOptional);
  if (!attrs.ok()) return attrs.error();
  if (request.soname.empty()) return Error("<derive-request> missing soname");
  return Status::success();
}

Result<DeriveRequest> DeriveRequest::from_xml(std::string_view document) {
  return xml::decode<DeriveRequest>(document, from_xml);
}

std::string DeriveRequest::encode() const {
  if (format == WireFormat::kXml) return xml::serialize(to_xml());
  return fleet::record::encode(*this);
}

Result<DeriveRequest> DeriveRequest::decode(std::string_view payload) {
  if (fleet::record::sniff(payload) != fleet::record::Kind::kRequest) {
    return xml::decode<DeriveRequest>(payload, from_xml, "xml request: ");
  }
  auto request = fleet::record::decode<DeriveRequest>(payload);
  if (request.ok() && request.value().soname.empty()) {
    return Error("binary request: missing soname");
  }
  return request;
}

xml::Node DeriveResponse::to_xml() const {
  xml::Node node("derive-response");
  node.set_attr("status", xml::name_of(kStatusNames, status));
  node.set_attr("probes", std::to_string(probes));
  if (!error.empty()) node.add_text_child("error", error);
  // NOTE: the XML reader trims character data, so an XML envelope normalizes
  // leading/trailing payload whitespace on decode. The binary envelope is
  // byte-exact; binary campaign payloads always travel in binary envelopes.
  if (!payload.empty()) node.add_text_child("payload", payload);
  return node;
}

Status DeriveResponse::from_xml(xml::Reader& in, DeriveResponse& response) {
  if (in.name() != "derive-response") return Error("expected <derive-response>");
  response = DeriveResponse{};
  xml::AttrReader attrs(in);
  attrs.word("status", response.status, kStatusNames, xml::kOptional);
  attrs.num("probes", response.probes, xml::kOptional);
  if (!attrs.ok()) return attrs.error();
  // The first <error> and the first <payload>.
  bool error = false;
  bool payload = false;
  in.children([&](std::string_view name) {
    if (name == "error" && !std::exchange(error, true)) {
      in.text(response.error);
    } else if (name == "payload" && !std::exchange(payload, true)) {
      in.text(response.payload);
    }
  });
  return Status::success();
}

Result<DeriveResponse> DeriveResponse::from_xml(std::string_view document) {
  return xml::decode<DeriveResponse>(document, from_xml);
}

std::string DeriveResponse::encode(WireFormat format) const {
  if (format == WireFormat::kXml) return xml::serialize(to_xml());
  return fleet::record::encode(*this);
}

Result<DeriveResponse> DeriveResponse::decode(std::string_view payload) {
  if (fleet::record::sniff(payload) != fleet::record::Kind::kResponse) {
    return xml::decode<DeriveResponse>(payload, from_xml, "xml response: ");
  }
  return fleet::record::decode<DeriveResponse>(payload);
}

}  // namespace healers::server
