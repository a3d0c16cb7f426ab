#include "server/spec_cache.hpp"

#include <fstream>
#include <sstream>

#include "fleet/wire.hpp"

namespace healers::server {
namespace {

template <class T>
Status append_decoded(std::vector<T>& entries, std::string_view payload) {
  auto entry = fleet::record::decode<T>(payload);
  if (!entry.ok()) return entry.error();
  entries.push_back(std::move(entry).take());
  return Status::success();
}

}  // namespace

std::string encode_cache_file(const CacheImage& image) {
  std::vector<std::string> documents;
  const auto add = [&documents](const auto& entries) {
    for (const auto& entry : entries) documents.push_back(fleet::record::encode(entry));
  };
  add(image.campaigns);
  add(image.profiles);
  add(image.repairs);
  add(image.scopes);
  return fleet::frame_stream(documents);
}

Result<CacheImage> decode_cache_file(std::string_view bytes) {
  auto documents = fleet::unframe_stream(bytes);
  if (!documents.ok()) return documents.error();
  CacheImage image;
  for (const std::string& doc : documents.value()) {
    using fleet::record::Kind;
    Status status;
    switch (fleet::record::sniff(doc)) {
      case Kind::kCampaignEntry: status = append_decoded(image.campaigns, doc); break;
      case Kind::kProfileEntry: status = append_decoded(image.profiles, doc); break;
      case Kind::kRepairEntry: status = append_decoded(image.repairs, doc); break;
      case Kind::kSurfaceEntry: status = append_decoded(image.scopes, doc); break;
      default:
        // An entry kind this build does not know — written by a newer
        // toolkit. Skipping it keeps old readers serving what they DO know.
        ++image.skipped_unknown;
    }
    if (!status.ok()) return status.error();
  }
  return image;
}

Status save_cache_file(const core::Toolkit& toolkit, const std::string& path) {
  // Campaign entries (canonical key order) followed by profile entries
  // (sorted by signature) — the whole image is deterministic.
  CacheImage image;
  image.campaigns = toolkit.export_campaigns();
  image.profiles = toolkit.implication_profiles()->export_profiles();
  image.repairs = toolkit.export_repair_policies();
  image.scopes = toolkit.export_surface_scopes();
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::failure("cannot write " + path);
  out << encode_cache_file(image);
  if (!out) return Status::failure("short write to " + path);
  return Status::success();
}

Result<std::size_t> load_cache_file(const core::Toolkit& toolkit, const std::string& path,
                                    std::size_t* skipped_unknown) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto image = decode_cache_file(buffer.str());
  if (!image.ok()) return Error(path + ": " + image.error().message);
  CacheImage& entries = image.value();
  if (skipped_unknown != nullptr) *skipped_unknown = entries.skipped_unknown;
  toolkit.implication_profiles()->import_profiles(entries.profiles);
  toolkit.import_repair_policies(std::move(entries.repairs));
  toolkit.import_surface_scopes(std::move(entries.scopes));
  return toolkit.import_campaigns(std::move(entries.campaigns));
}

}  // namespace healers::server
