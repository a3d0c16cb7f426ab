#include "fleet/wire.hpp"

#include "xml/xml.hpp"

namespace healers::fleet {

std::string encode_binary(const profile::ProfileReport& report) { return record::encode(report); }

std::string encode_dossier_binary(const incident::Dossier& dossier) {
  return record::encode(dossier);
}

std::string encode_surface_binary(const debloat::SurfaceProfile& profile) {
  return record::encode(profile);
}

Result<profile::ProfileReport> decode_document(std::string_view payload) {
  if (record::sniff(payload) == record::Kind::kProfile) {
    return record::decode<profile::ProfileReport>(payload);
  }
  return xml::decode<profile::ProfileReport>(payload, profile::from_xml, "xml document: ");
}

std::string frame_stream(const std::vector<std::string>& documents) {
  return record::encode(documents);
}

Result<std::vector<std::string>> unframe_stream(std::string_view stream) {
  return record::decode<std::vector<std::string>>(stream);
}

}  // namespace healers::fleet
