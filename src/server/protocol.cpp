#include "server/protocol.hpp"

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

Result<DeriveRequest> DeriveRequest::from_xml(const xml::Node& node) {
  if (node.name() != "derive-request") return Error("expected <derive-request>");
  DeriveRequest request;
  // Everything but the soname may be absent and keeps its default. variants,
  // an int, is bounded by INT_MAX, so it also fits its HRQ1 field, a u32.
  xml::AttrReader attrs(node);
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
  return request;
}

std::string DeriveRequest::encode() const {
  if (format == WireFormat::kXml) return xml::serialize(to_xml());
  return fleet::record::encode(*this);
}

Result<DeriveRequest> DeriveRequest::decode(std::string_view payload) {
  if (fleet::record::sniff(payload) != fleet::record::Kind::kRequest) {
    auto parsed = xml::parse(payload);
    if (!parsed.ok()) return Error("xml request: " + parsed.error().message);
    return from_xml(parsed.value());
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
  // NOTE: the XML parser trims character data, so an XML envelope normalizes
  // leading/trailing payload whitespace on decode. The binary envelope is
  // byte-exact; binary campaign payloads always travel in binary envelopes.
  if (!payload.empty()) node.add_text_child("payload", payload);
  return node;
}

Result<DeriveResponse> DeriveResponse::from_xml(const xml::Node& node) {
  if (node.name() != "derive-response") return Error("expected <derive-response>");
  DeriveResponse response;
  xml::AttrReader attrs(node);
  attrs.word("status", response.status, kStatusNames, xml::kOptional);
  attrs.num("probes", response.probes, xml::kOptional);
  if (!attrs.ok()) return attrs.error();
  if (const xml::Node* error = node.child("error")) response.error = error->text();
  if (const xml::Node* payload = node.child("payload")) response.payload = payload->text();
  return response;
}

std::string DeriveResponse::encode(WireFormat format) const {
  if (format == WireFormat::kXml) return xml::serialize(to_xml());
  return fleet::record::encode(*this);
}

Result<DeriveResponse> DeriveResponse::decode(std::string_view payload) {
  if (fleet::record::sniff(payload) != fleet::record::Kind::kResponse) {
    auto parsed = xml::parse(payload);
    if (!parsed.ok()) return Error("xml response: " + parsed.error().message);
    return from_xml(parsed.value());
  }
  return fleet::record::decode<DeriveResponse>(payload);
}

}  // namespace healers::server
