#include "server/protocol.hpp"

#include <limits>

namespace healers::server {
namespace {

// Reads an optional numeric attribute into `field`: absent keeps the field as
// it is; present must be a decimal that `field`'s type holds.
template <class T>
Status read_u64(const xml::Node& node, std::string_view key, T& field) {
  if (node.attr(key) == nullptr) return Status::success();
  auto value = node.attr_u64(key, std::numeric_limits<T>::max());
  if (!value.ok()) return value.error();
  field = static_cast<T>(value.value());
  return Status::success();
}

}  // namespace

std::string_view to_string(Endpoint endpoint) noexcept {
  return endpoint == Endpoint::kDerive ? "derive" : "bundle";
}

std::string_view to_string(BundleKind kind) noexcept {
  switch (kind) {
    case BundleKind::kRobustness: return "robustness";
    case BundleKind::kSecurity: return "security";
    case BundleKind::kProfiling: return "profiling";
    case BundleKind::kRepair: return "repair";
  }
  return "?";
}

std::string_view to_string(ResponseStatus status) noexcept {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kError: return "error";
    case ResponseStatus::kShed: return "shed";
  }
  return "?";
}

injector::InjectorConfig DeriveRequest::injector_config() const {
  injector::InjectorConfig config;
  config.seed = seed;
  config.variants = variants;
  config.probe_step_budget = probe_step_budget;
  config.testbed_heap = testbed_heap;
  config.testbed_stack = testbed_stack;
  return config;
}

std::string DeriveRequest::canonical_key() const {
  std::string key;
  fleet::record::write(key, *this);
  return key;
}

xml::Node DeriveRequest::to_xml() const {
  xml::Node node("derive-request");
  node.set_attr("endpoint", std::string(to_string(endpoint)));
  node.set_attr("soname", soname);
  node.set_attr("seed", std::to_string(seed));
  node.set_attr("variants", std::to_string(variants));
  node.set_attr("budget", std::to_string(probe_step_budget));
  node.set_attr("heap", std::to_string(testbed_heap));
  node.set_attr("stack", std::to_string(testbed_stack));
  if (endpoint == Endpoint::kBundle) node.set_attr("bundle", std::string(to_string(bundle)));
  node.set_attr("format", format == WireFormat::kBinary ? "binary" : "xml");
  return node;
}

Result<DeriveRequest> DeriveRequest::from_xml(const xml::Node& node) {
  if (node.name() != "derive-request") return Error("expected <derive-request>");
  DeriveRequest request;
  const std::string* endpoint = node.attr("endpoint");
  if (endpoint == nullptr || *endpoint == "derive") {
    request.endpoint = Endpoint::kDerive;
  } else if (*endpoint == "bundle") {
    request.endpoint = Endpoint::kBundle;
  } else {
    return Error("<derive-request> unknown endpoint " + *endpoint);
  }
  const std::string* soname = node.attr("soname");
  if (soname == nullptr || soname->empty()) return Error("<derive-request> missing soname");
  request.soname = *soname;
  // An absent number keeps the field's default. variants, an int, is bounded
  // by INT_MAX, so it also fits its HRQ1 field, a u32.
  for (const Status& read :
       {read_u64(node, "seed", request.seed),
        read_u64(node, "variants", request.variants),
        read_u64(node, "budget", request.probe_step_budget),
        read_u64(node, "heap", request.testbed_heap),
        read_u64(node, "stack", request.testbed_stack)}) {
    if (!read.ok()) return read.error();
  }
  if (const std::string* bundle = node.attr("bundle")) {
    if (*bundle == "robustness") {
      request.bundle = BundleKind::kRobustness;
    } else if (*bundle == "security") {
      request.bundle = BundleKind::kSecurity;
    } else if (*bundle == "profiling") {
      request.bundle = BundleKind::kProfiling;
    } else if (*bundle == "repair") {
      request.bundle = BundleKind::kRepair;
    } else {
      return Error("<derive-request> unknown bundle " + *bundle);
    }
  }
  if (const std::string* format = node.attr("format")) {
    if (*format == "xml") {
      request.format = WireFormat::kXml;
    } else if (*format == "binary") {
      request.format = WireFormat::kBinary;
    } else {
      return Error("<derive-request> unknown format " + *format);
    }
  }
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
  node.set_attr("status", std::string(to_string(status)));
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
  const std::string* status = node.attr("status");
  if (status == nullptr || *status == "ok") {
    response.status = ResponseStatus::kOk;
  } else if (*status == "error") {
    response.status = ResponseStatus::kError;
  } else if (*status == "shed") {
    response.status = ResponseStatus::kShed;
  } else {
    return Error("<derive-response> unknown status " + *status);
  }
  if (const Status read = read_u64(node, "probes", response.probes); !read.ok()) {
    return read.error();
  }
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
