#include "debloat/surface.hpp"

#include <sstream>

#include "xml/xml.hpp"

namespace healers::debloat {

namespace {

void add_symbol_list(xml::Node& root, const std::string& name,
                     const std::vector<std::string>& symbols) {
  xml::Node& list = root.add_child(name);
  for (const std::string& symbol : symbols) {
    list.add_child("symbol").set_attr("name", symbol);
  }
}

Status read_symbol_list(const xml::Node& root, std::string_view name,
                        std::vector<std::string>& out) {
  const xml::Node* list = root.child(name);
  if (list == nullptr) return Error("surface-profile: missing <" + std::string(name) + ">");
  for (const xml::Node* row : list->children_named("symbol")) {
    xml::AttrReader symbol(*row);
    symbol.str("name", out.emplace_back());
    if (!symbol.ok()) return symbol.error();
  }
  return Status::success();
}

int percent(double ratio) { return static_cast<int>(ratio * 100.0 + 0.5); }

}  // namespace

double SurfaceProfile::unmapped_ratio() const noexcept {
  if (exported == 0) return 0.0;
  const std::uint64_t mapped = touched < exported ? touched : exported;
  return static_cast<double>(exported - mapped) / static_cast<double>(exported);
}

double SurfaceProfile::bloat_ratio() const noexcept {
  if (exported == 0) return 0.0;
  const std::uint64_t reached = reachable < exported ? reachable : exported;
  return static_cast<double>(exported - reached) / static_cast<double>(exported);
}

double SurfaceProfile::resident_ratio() const noexcept {
  if (total_pages == 0) return 0.0;
  return static_cast<double>(resident_pages) / static_cast<double>(total_pages);
}

std::string SurfaceProfile::to_xml() const {
  xml::Node root("surface-profile");
  root.set_attr("host", host);
  root.set_attr("executable", executable);
  root.set_attr("exported", std::to_string(exported));
  root.set_attr("reachable", std::to_string(reachable));
  root.set_attr("touched", std::to_string(touched));
  root.set_attr("trapped", std::to_string(trapped));
  root.set_attr("resident_pages", std::to_string(resident_pages));
  root.set_attr("total_pages", std::to_string(total_pages));
  add_symbol_list(root, "reachable", reachable_symbols);
  add_symbol_list(root, "touched", touched_symbols);
  add_symbol_list(root, "trapped", trapped_symbols);
  return xml::serialize(root);
}

std::string SurfaceProfile::to_text() const {
  std::ostringstream out;
  out << "surface profile: " << executable << " on " << host << "\n";
  out << "  exported " << exported << ", reachable " << reachable << ", touched " << touched
      << ", trapped " << trapped << "\n";
  out << "  unmapped: " << percent(unmapped_ratio()) << "%  bloat (outside closure): "
      << percent(bloat_ratio()) << "%\n";
  out << "  text pages resident: " << resident_pages << "/" << total_pages << " ("
      << percent(resident_ratio()) << "%)\n";
  out << "  touched:";
  for (const std::string& symbol : touched_symbols) out << ' ' << symbol;
  out << "\n";
  if (!trapped_symbols.empty()) {
    out << "  TRAPPED (surface violations):";
    for (const std::string& symbol : trapped_symbols) out << ' ' << symbol;
    out << "\n";
  }
  return out.str();
}

Result<SurfaceProfile> surface_from_xml(std::string_view document) {
  auto parsed = xml::parse(document);
  if (!parsed.ok()) return parsed.error();
  return surface_from_xml(parsed.value());
}

Result<SurfaceProfile> surface_from_xml(const xml::Node& root) {
  if (root.name() != "surface-profile") {
    return Error("surface-profile: root element is not <surface-profile>");
  }
  SurfaceProfile out;
  xml::AttrReader attrs(root);
  attrs.str("host", out.host, xml::kOptional);
  attrs.str("executable", out.executable, xml::kOptional);
  attrs.num("exported", out.exported);
  attrs.num("reachable", out.reachable);
  attrs.num("touched", out.touched);
  attrs.num("trapped", out.trapped);
  attrs.num("resident_pages", out.resident_pages);
  attrs.num("total_pages", out.total_pages);
  if (!attrs.ok()) return attrs.error();
  for (const Status& list : {read_symbol_list(root, "reachable", out.reachable_symbols),
                             read_symbol_list(root, "touched", out.touched_symbols),
                             read_symbol_list(root, "trapped", out.trapped_symbols)}) {
    if (!list.ok()) return list.error();
  }
  return out;
}

SurfaceProfile capture_surface_profile(const linker::Process& proc,
                                       const ReachabilityReport& reach, std::string host) {
  SurfaceProfile profile;
  profile.host = std::move(host);
  profile.executable = proc.name();
  profile.exported = proc.surface().exported;
  profile.reachable = reach.reachable.size();
  profile.touched = proc.surface().mapped;
  profile.trapped = proc.surface().violations;
  profile.reachable_symbols = reach.reachable;
  profile.touched_symbols.assign(proc.touched_symbols().begin(), proc.touched_symbols().end());
  profile.trapped_symbols.assign(proc.trapped_symbols().begin(), proc.trapped_symbols().end());
  // One text page per export is what eager binding would map; the load
  // barrier mapped exactly one resident page per touched symbol.
  profile.total_pages = profile.exported;
  for (const mem::Region* region : proc.machine().mem().region_map()) {
    if (region->label.rfind("text:", 0) == 0) profile.resident_pages += region->resident_pages();
  }
  return profile;
}

}  // namespace healers::debloat
